//! Substrate microbenchmarks: the data structures the simulation's
//! throughput stands on, plus the observer seam's disabled-path cost
//! (the "zero-cost when unregistered" claim, measured).

use odb_bench::harness::{bench, black_box};
use odb_core::config::{CacheGeometry, SystemConfig};
use odb_des::{EventQueue, ObserverHub, SimEvent, SimTime};
use odb_engine::buffer::BufferCache;
use odb_engine::observe::StatsObserver;
use odb_engine::schema::PageMap;
use odb_engine::txn::TxnSampler;
use odb_memsim::cache::SetAssocCache;
use odb_memsim::dist::Zipf;
use odb_memsim::hierarchy::{CpuHierarchy, Space};
use odb_memsim::tlb::Tlb;
use odb_memsim::{BatchOutcomes, RefBatch, DEFAULT_BATCH_CAPACITY};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn bench_cache() {
    let geometry = CacheGeometry::new(1 << 20, 64, 8).expect("geometry");
    let mut cache = SetAssocCache::new(geometry);
    let mut rng = SmallRng::seed_from_u64(1);
    let zipf = Zipf::new(1 << 16, 0.9).expect("zipf");
    bench("cache/l3_access_zipf", || {
        let line = zipf.sample(&mut rng) * 64;
        black_box(cache.access(line, false))
    });
    let mut hierarchy = CpuHierarchy::new(&SystemConfig::xeon_quad()).expect("hierarchy");
    bench("cache/full_hierarchy_data_ref", || {
        let addr = zipf.sample(&mut rng) * 64;
        black_box(hierarchy.access_data(addr, false, Space::User))
    });
    // The same draws walked by the SoA batch kernels, one full batch per
    // iteration (fill as `trace.rs` does, then `access_batch`). Its time
    // over the batch size, set against `full_hierarchy_data_ref`, is the
    // batching speedup per reference.
    let mut hierarchy = CpuHierarchy::new(&SystemConfig::xeon_quad()).expect("hierarchy");
    let mut batch = RefBatch::with_capacity(DEFAULT_BATCH_CAPACITY);
    let mut out = BatchOutcomes::new();
    bench(
        &format!("cache/hierarchy_walk_batch_{DEFAULT_BATCH_CAPACITY}"),
        || {
            batch.clear();
            for _ in 0..DEFAULT_BATCH_CAPACITY {
                batch.push_data(zipf.sample(&mut rng) * 64, false, Space::User);
            }
            hierarchy.access_batch(&batch, &mut out);
            black_box(out.fills().len())
        },
    );
    let mut tlb = Tlb::new(64).expect("tlb");
    let pages = Zipf::new(1 << 12, 0.9).expect("zipf");
    bench("cache/tlb_access", || {
        black_box(tlb.access(pages.sample(&mut rng) << 12))
    });
}

fn bench_buffer() {
    let mut cache = BufferCache::new(100_000);
    let zipf = Zipf::new(400_000, 0.9).expect("zipf");
    let mut rng = SmallRng::seed_from_u64(2);
    bench("buffer_cache/lru_access_mixed", || {
        let page = zipf.sample(&mut rng);
        black_box(cache.access(page, page.is_multiple_of(5)))
    });
}

fn bench_event_queue() {
    let mut q = EventQueue::new();
    let mut rng = SmallRng::seed_from_u64(3);
    for i in 0..1_000u64 {
        q.schedule(SimTime::from_nanos(i * 97), i);
    }
    let mut t = 100_000u64;
    bench("des/schedule_pop_1k_horizon", || {
        let (when, _) = q.pop().expect("queue stays full");
        t = t.max(when.as_nanos()) + rng.gen_range(1..200u64);
        q.schedule(SimTime::from_nanos(t), 0);
    });
}

/// The observer seam's hot-path costs: an `emit_with` against an empty
/// hub must be nothing but a branch (the engine runs this on every
/// transaction event), and a registered stats observer should still be
/// a handful of nanoseconds.
fn bench_observe() {
    let mut empty = ObserverHub::new();
    let mut pid = 0u32;
    bench("observe/emit_with_empty_hub", || {
        pid = pid.wrapping_add(1);
        empty.emit_with(SimTime::ZERO, || SimEvent::LockWait { pid });
        black_box(pid)
    });
    let mut hub = ObserverHub::new();
    hub.register(Box::new(StatsObserver::default()));
    let mut n = 0u64;
    bench("observe/emit_charged_stats_observer", || {
        n = n.wrapping_add(17);
        hub.emit(
            SimTime::ZERO,
            &SimEvent::Charged {
                os: false,
                instructions: n,
            },
        );
        black_box(n)
    });
}

fn bench_workload() {
    let mut sampler = TxnSampler::new(PageMap::new(800)).expect("sampler");
    let mut rng = SmallRng::seed_from_u64(4);
    bench("workload/txn_sample_800w", || {
        black_box(sampler.sample(&mut rng).touches.len())
    });
    let zipf = Zipf::new(100_000, 1.0).expect("zipf");
    bench("workload/zipf_sample_100k", || {
        black_box(zipf.sample(&mut rng))
    });
}

fn main() {
    bench_cache();
    bench_buffer();
    bench_event_queue();
    bench_observe();
    bench_workload();
}
