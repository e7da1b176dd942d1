//! The observer seam: typed hook events for cross-cutting observation.
//!
//! Every layer of the simulation stack (engine event loop, lock manager,
//! writers, buffer cache, OS run queue, disk array) announces what it is
//! doing through one narrow interface: it emits [`SimEvent`]s into an
//! [`ObserverHub`], and registered [`SimObserver`]s consume them. The
//! statistics counters, the `invariants` checks, EMON counter sampling,
//! latency histograms and trace sinks are all observers — none of them
//! threads private state through the event loop anymore.
//!
//! Two properties are contractual:
//!
//! * **Observation only** — observers receive copies of values the
//!   simulation already computed. They cannot touch the RNG streams, the
//!   event calendar, or any simulated state, so registering or removing
//!   observers never changes simulation bits (asserted by the engine's
//!   determinism tests and the sweep drift gate).
//! * **Zero cost when empty** — [`ObserverHub::emit_with`] takes a
//!   closure and never even constructs the event when nobody listens,
//!   so a hub with no observers compiles down to one branch per hook
//!   (measured by `odb-bench`'s `observe/emit_with_empty_hub`).

use crate::SimTime;
use std::any::Any;
use std::fmt;

/// What a disk request was for, as reported by [`SimEvent::IoComplete`].
///
/// This mirrors the I/O simulator's request taxonomy without depending on
/// it; `odb-iosim` maps its own kind into this one at the emission site,
/// keeping the kernel crate free of upward dependencies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoKind {
    /// Synchronous database-block read a process blocks on.
    Read,
    /// Sequential redo-log append.
    LogWrite,
    /// Asynchronous dirty-page writeback.
    PageWrite,
}

impl fmt::Display for IoKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoKind::Read => write!(f, "read"),
            IoKind::LogWrite => write!(f, "log_write"),
            IoKind::PageWrite => write!(f, "page_write"),
        }
    }
}

/// One hook event from the simulation stack.
///
/// Process ids are the raw `u32` payload of the OS model's `ProcessId`
/// and transaction kinds are the engine's transaction-type index
/// (`TxnType::index()`); both stay untyped here so the kernel crate does
/// not depend on the layers above it.
#[derive(Debug, Clone, PartialEq)]
pub enum SimEvent {
    /// A server process started executing a freshly sampled transaction.
    TxnStarted {
        /// Raw process id.
        pid: u32,
        /// Transaction-type index.
        kind: usize,
    },
    /// A transaction committed (or completed read-only).
    TxnCommitted {
        /// Raw process id.
        pid: u32,
        /// Transaction-type index.
        kind: usize,
        /// Start-to-commit simulated latency.
        latency: SimTime,
    },
    /// A process queued on a held lock and must block.
    LockWait {
        /// Raw process id of the blocked process.
        pid: u32,
    },
    /// A buffer-cache access missed.
    BufferMiss {
        /// The missed page number.
        page: u64,
        /// `true` for a write access.
        write: bool,
    },
    /// The log writer began flushing a commit batch.
    FlushBegin {
        /// Redo bytes in the batch being forced.
        bytes: u64,
    },
    /// An in-flight log flush finished.
    FlushEnd {
        /// Number of committing processes the flush released.
        woken: usize,
    },
    /// The run queue dispatched a process onto a CPU (a context switch).
    ContextSwitch {
        /// The CPU that changed occupant.
        cpu: usize,
        /// Raw process id of the new occupant.
        pid: u32,
    },
    /// A disk request's completion time became known.
    ///
    /// The disk array computes completion times at submission (service
    /// times are deterministic once the jitter is drawn), so this fires
    /// at submit time with `done` pointing into the simulated future.
    IoComplete {
        /// What the request was for.
        kind: IoKind,
        /// Stripe selector (page number; 0 for log appends).
        locator: u64,
        /// Transfer size in bytes.
        bytes: u64,
        /// Simulated instant the request completes.
        done: SimTime,
    },
    /// An instruction segment was charged to a CPU.
    Charged {
        /// `true` for kernel-mode work, `false` for user-mode.
        os: bool,
        /// Instructions in the segment.
        instructions: u64,
    },
    /// The bus model closed a feedback window.
    BusObserved {
        /// Bus utilization over the window, in `[0, 1]`.
        utilization: f64,
        /// Resulting IOQ latency in cycles.
        ioq_latency_cycles: f64,
    },
}

/// A consumer of [`SimEvent`]s.
///
/// Implementations must be observation-only: they may accumulate private
/// state from the events but must not influence the simulation (they get
/// no handle to do so — the contract exists because an observer could
/// still, say, share an RNG with the engine through interior mutability;
/// don't).
///
/// The `Any` supertrait lets the hub hand registered observers back to
/// their owners by concrete type ([`ObserverHub::get`]).
pub trait SimObserver: Any + Send {
    /// Called for every emitted event. `now` is the simulated instant of
    /// emission (events may *describe* other instants, e.g.
    /// [`SimEvent::IoComplete::done`]).
    fn on_event(&mut self, now: SimTime, event: &SimEvent);

    /// Called when the statistics window resets (start of measurement).
    /// Observers accumulating window statistics should zero them here;
    /// lifecycle trackers should keep in-flight state, since work started
    /// before the window may finish inside it.
    fn on_reset(&mut self, now: SimTime) {
        let _ = now;
    }
}

/// The registry events are emitted into.
///
/// Owned by the simulator; one hub serves every layer (the engine passes
/// `&mut` references down into the OS and I/O models at their hook
/// points).
#[derive(Default)]
pub struct ObserverHub {
    observers: Vec<Box<dyn SimObserver>>,
}

impl fmt::Debug for ObserverHub {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ObserverHub")
            .field("observers", &self.observers.len())
            .finish()
    }
}

impl ObserverHub {
    /// An empty hub: every emission is a no-op costing one branch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an observer; it receives every subsequent event, in
    /// registration order.
    pub fn register(&mut self, observer: Box<dyn SimObserver>) {
        self.observers.push(observer);
    }

    /// `true` when no observers are registered.
    pub fn is_empty(&self) -> bool {
        self.observers.is_empty()
    }

    /// Number of registered observers.
    pub fn len(&self) -> usize {
        self.observers.len()
    }

    /// Delivers `event` to every observer in registration order.
    #[inline]
    pub fn emit(&mut self, now: SimTime, event: &SimEvent) {
        for observer in &mut self.observers {
            observer.on_event(now, event);
        }
    }

    /// Like [`ObserverHub::emit`], but the event is only constructed when
    /// at least one observer is registered — use this at hook points
    /// where building the event is not free.
    #[inline]
    pub fn emit_with(&mut self, now: SimTime, make: impl FnOnce() -> SimEvent) {
        if self.observers.is_empty() {
            return;
        }
        let event = make();
        self.emit(now, &event);
    }

    /// Forwards a statistics-window reset to every observer.
    pub fn reset(&mut self, now: SimTime) {
        for observer in &mut self.observers {
            observer.on_reset(now);
        }
    }

    /// The first registered observer of concrete type `T`, if any.
    pub fn get<T: SimObserver>(&self) -> Option<&T> {
        self.observers.iter().find_map(|o| {
            let any: &dyn Any = &**o;
            any.downcast_ref::<T>()
        })
    }

    /// Mutable companion to [`ObserverHub::get`].
    pub fn get_mut<T: SimObserver>(&mut self) -> Option<&mut T> {
        self.observers.iter_mut().find_map(|o| {
            let any: &mut dyn Any = &mut **o;
            any.downcast_mut::<T>()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Counter {
        events: usize,
        resets: usize,
        last_commit_kind: Option<usize>,
    }

    impl SimObserver for Counter {
        fn on_event(&mut self, _now: SimTime, event: &SimEvent) {
            self.events += 1;
            if let SimEvent::TxnCommitted { kind, .. } = *event {
                self.last_commit_kind = Some(kind);
            }
        }
        fn on_reset(&mut self, _now: SimTime) {
            self.resets += 1;
        }
    }

    #[derive(Default)]
    struct Other;
    impl SimObserver for Other {
        fn on_event(&mut self, _now: SimTime, _event: &SimEvent) {}
    }

    #[test]
    fn events_reach_every_observer_in_order() {
        let mut hub = ObserverHub::new();
        assert!(hub.is_empty());
        hub.register(Box::new(Counter::default()));
        hub.register(Box::new(Other));
        assert_eq!(hub.len(), 2);
        hub.emit(SimTime::ZERO, &SimEvent::LockWait { pid: 3 });
        hub.emit(
            SimTime::from_micros(5),
            &SimEvent::TxnCommitted {
                pid: 3,
                kind: 2,
                latency: SimTime::from_micros(5),
            },
        );
        hub.reset(SimTime::from_micros(9));
        let counter = hub.get::<Counter>().unwrap();
        assert_eq!(counter.events, 2);
        assert_eq!(counter.resets, 1);
        assert_eq!(counter.last_commit_kind, Some(2));
    }

    #[test]
    fn emit_with_skips_construction_when_empty() {
        let mut hub = ObserverHub::new();
        // The closure must not run on an empty hub.
        hub.emit_with(SimTime::ZERO, || unreachable!("no observers"));
        hub.register(Box::new(Counter::default()));
        hub.emit_with(SimTime::ZERO, || SimEvent::FlushBegin { bytes: 6144 });
        assert_eq!(hub.get::<Counter>().unwrap().events, 1);
    }

    #[test]
    fn get_is_typed_and_mutable() {
        let mut hub = ObserverHub::new();
        hub.register(Box::new(Other));
        assert!(hub.get::<Counter>().is_none());
        hub.register(Box::new(Counter::default()));
        hub.get_mut::<Counter>().unwrap().events = 41;
        hub.emit(SimTime::ZERO, &SimEvent::FlushEnd { woken: 1 });
        assert_eq!(hub.get::<Counter>().unwrap().events, 42);
    }

    #[test]
    fn io_kind_displays_snake_case() {
        assert_eq!(IoKind::Read.to_string(), "read");
        assert_eq!(IoKind::LogWrite.to_string(), "log_write");
        assert_eq!(IoKind::PageWrite.to_string(), "page_write");
    }
}
