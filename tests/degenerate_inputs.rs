//! Degenerate-input regression tests: every rejected input must come
//! back as a typed [`odb_core::Error`], never a panic, and the smallest
//! legitimate configuration must still simulate end to end.
//!
//! These pin the library-wide panic policy (tests may unwrap; library
//! code may not): validation happens at construction, so by the time a
//! simulation runs, its inputs are invariants.

use odb_core::config::{OltpConfig, SystemConfig, WorkloadConfig};
use odb_core::Error;
use odb_engine::txn::TxnMix;
use odb_engine::{OdbSimulator, SimOptions};
use odb_memsim::dist::Zipf;

#[test]
fn zero_clients_is_rejected_not_panicked() {
    let err = WorkloadConfig::new(10, 0).unwrap_err();
    assert!(
        matches!(err, Error::InvalidConfig { field: "clients", .. }),
        "got: {err}"
    );
}

#[test]
fn zero_warehouses_is_rejected_not_panicked() {
    assert!(matches!(
        WorkloadConfig::new(0, 8),
        Err(Error::InvalidConfig { .. })
    ));
}

#[test]
fn mix_weights_not_summing_to_one_are_rejected() {
    let err = TxnMix::new([0.5, 0.5, 0.5, 0.0, 0.0]).unwrap_err();
    assert!(
        matches!(err, Error::InvalidConfig { field: "weights", .. }),
        "got: {err}"
    );
}

#[test]
fn nan_mix_weight_is_rejected() {
    let err = TxnMix::new([f64::NAN, 0.43, 0.04, 0.04, 0.04]).unwrap_err();
    assert!(
        matches!(err, Error::InvalidConfig { field: "weights", .. }),
        "got: {err}"
    );
}

#[test]
fn negative_mix_weight_is_rejected() {
    assert!(TxnMix::new([-0.1, 0.53, 0.04, 0.04, 0.49]).is_err());
}

#[test]
fn degenerate_zipf_domains_are_rejected() {
    assert!(matches!(
        Zipf::new(0, 1.0),
        Err(Error::InvalidConfig { field: "zipf_domain", .. })
    ));
    assert!(matches!(
        Zipf::new(100, f64::NAN),
        Err(Error::InvalidConfig { field: "zipf_exponent", .. })
    ));
    assert!(matches!(
        Zipf::new(100, -1.0),
        Err(Error::InvalidConfig { field: "zipf_exponent", .. })
    ));
}

/// The smallest legitimate grid point — one warehouse, one client, one
/// CPU — runs the full characterize→simulate pipeline without error.
#[test]
fn single_warehouse_single_cpu_quick_run_succeeds() {
    let config = OltpConfig::new(
        WorkloadConfig::new(1, 1).unwrap(),
        SystemConfig::xeon_quad().with_processors(1),
    )
    .unwrap();
    let m = OdbSimulator::new(config, SimOptions::quick())
        .unwrap()
        .run()
        .unwrap();
    assert!(m.transactions > 0, "even 1W/1C/1P must commit something");
}

/// `--out` with a missing or empty directory is a usage error (exit 2)
/// that writes nothing, not a sweep whose artifacts land in the working
/// directory.
#[test]
fn out_without_a_directory_is_a_usage_error() {
    let cwd = std::env::temp_dir().join(format!("odb-bare-out-{}", std::process::id()));
    std::fs::create_dir_all(&cwd).unwrap();
    for args in [&["table1", "--quick", "--out"][..], &["table1", "--quick", "--out", ""]] {
        let status = std::process::Command::new(env!("CARGO_BIN_EXE_odb-experiments"))
            .args(args)
            .current_dir(&cwd)
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .status()
            .unwrap();
        assert_eq!(status.code(), Some(2), "args {args:?}");
        assert_eq!(
            std::fs::read_dir(&cwd).unwrap().count(),
            0,
            "args {args:?} created files"
        );
    }
    std::fs::remove_dir_all(&cwd).unwrap();
}
