//! Lazily-bound handles to metrics in the [global](crate::global)
//! registry.
//!
//! A hot instrumentation site (once per solve/epoch) should not pay a
//! mutex + `BTreeMap` lookup per recording. These types resolve the
//! named metric **once** on first use and cache the `Arc` in a
//! `OnceLock`, so steady-state recording is a single atomic op. Safe
//! across [`Registry::reset`](crate::Registry::reset), which zeroes
//! metrics in place and keeps existing handles live.
//!
//! ```
//! static SOLVES: dmra_obs::LazyCounter = dmra_obs::LazyCounter::new("my.solves");
//! SOLVES.get().inc();
//! ```

use crate::metrics::{Counter, Gauge, Histogram};
use crate::registry::global;
use std::sync::{Arc, OnceLock};

/// A named counter in the global registry, resolved on first use.
pub struct LazyCounter {
    name: &'static str,
    cell: OnceLock<Arc<Counter>>,
}

impl LazyCounter {
    /// Creates an unresolved handle (const, usable in a `static`).
    #[must_use]
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            cell: OnceLock::new(),
        }
    }

    /// The underlying counter, registering it on the first call.
    #[must_use]
    pub fn get(&self) -> &Counter {
        self.cell.get_or_init(|| global().counter(self.name))
    }
}

/// A named gauge in the global registry, resolved on first use.
pub struct LazyGauge {
    name: &'static str,
    cell: OnceLock<Arc<Gauge>>,
}

impl LazyGauge {
    /// Creates an unresolved handle (const, usable in a `static`).
    #[must_use]
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            cell: OnceLock::new(),
        }
    }

    /// The underlying gauge, registering it on the first call.
    #[must_use]
    pub fn get(&self) -> &Gauge {
        self.cell.get_or_init(|| global().gauge(self.name))
    }
}

/// A named histogram in the global registry, resolved on first use.
pub struct LazyHistogram {
    name: &'static str,
    cell: OnceLock<Arc<Histogram>>,
}

impl LazyHistogram {
    /// Creates an unresolved handle (const, usable in a `static`).
    #[must_use]
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            cell: OnceLock::new(),
        }
    }

    /// The underlying histogram, registering it on the first call.
    #[must_use]
    pub fn get(&self) -> &Histogram {
        self.cell.get_or_init(|| global().histogram(self.name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lazy_counter_registers_in_the_global_registry() {
        let _global = crate::registry::global_test_lock();
        static C: LazyCounter = LazyCounter::new("handles.test.counter");
        C.get().add(3);
        assert_eq!(
            global().counter("handles.test.counter").get(),
            C.get().get()
        );
    }

    #[test]
    fn lazy_handle_survives_reset() {
        let _global = crate::registry::global_test_lock();
        static H: LazyHistogram = LazyHistogram::new("handles.test.hist");
        H.get().record(5);
        global().reset();
        assert_eq!(H.get().count(), 0);
        H.get().record(7);
        assert_eq!(global().histogram("handles.test.hist").count(), 1);
    }
}
