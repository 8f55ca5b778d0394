//! Minimal SIGTERM/SIGINT latch for graceful drain, with no external
//! dependencies.
//!
//! [`install`] registers a handler that only sets a static
//! [`AtomicBool`] — the one action that is unconditionally
//! async-signal-safe — and the accept loop polls
//! [`termination_requested`] between accepts. On non-unix targets both
//! functions are no-ops and the daemon drains only via the `drain` op.
//!
//! [`install`]: crate::signal::install
//! [`AtomicBool`]: std::sync::atomic::AtomicBool
//! [`termination_requested`]: crate::signal::termination_requested

use std::sync::atomic::AtomicBool;
use std::sync::atomic::Ordering;

/// Set by the signal handler; polled by the accept loop.
static TERMINATION: AtomicBool = AtomicBool::new(false);

/// `true` once SIGTERM or SIGINT has been delivered (after
/// [`install`]), or after [`request_termination`].
pub fn termination_requested() -> bool {
    // Relaxed: the flag is a latch — the accept loop only needs to see
    // it eventually, and it synchronizes nothing else.
    TERMINATION.load(Ordering::Relaxed)
}

/// Sets the termination latch directly, as if a signal had arrived.
/// Used by the `drain` op and by tests.
pub fn request_termination() {
    // Relaxed: latch only, see `termination_requested`.
    TERMINATION.store(true, Ordering::Relaxed);
}

#[cfg(unix)]
mod imp {
    // `signal(2)` from the platform C library, declared by hand to
    // keep the workspace dependency-free. `handler` is either a
    // function pointer or the `SIG_*` sentinel constants.
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    /// The handler runs in signal context: the only thing it may do is
    /// set the latch (atomic stores are async-signal-safe; allocation,
    /// locking, and I/O are not).
    extern "C" fn on_signal(_signum: i32) {
        super::request_termination();
    }

    /// Registers the latch handler for SIGTERM and SIGINT.
    pub fn install() {
        // SAFETY: `signal` is the C-library registration call; passing
        // a valid signal number and the address of an `extern "C"`
        // handler that performs only an atomic store satisfies its
        // contract. The previous disposition is discarded on purpose —
        // the daemon owns shutdown for the whole process.
        unsafe {
            signal(SIGTERM, on_signal as *const () as usize);
            signal(SIGINT, on_signal as *const () as usize);
        }
    }
}

#[cfg(not(unix))]
mod imp {
    /// No signal latch off unix; the daemon drains via the `drain` op.
    pub fn install() {}
}

/// Installs the SIGTERM/SIGINT handler (no-op off unix). Idempotent.
pub fn install() {
    imp::install();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latch_is_settable_and_sticky() {
        install();
        request_termination();
        assert!(termination_requested());
        assert!(termination_requested());
    }
}
