//! Poison-ignoring locking over `std::sync`.
//!
//! A thread that panics while holding a `std::sync::Mutex` poisons it,
//! and every later `lock()` returns an error. The fabric keeps the
//! semantics it has always had, where locks do not poison: a panicking
//! stage thread is reported where it is joined (every stage thread is
//! joined with `expect`), and shutdown must still be able to take the
//! locks it shares with that thread to collect the other replicas'
//! reports. [`MutexExt::guard`] therefore takes the guard out of the
//! poison error; Condvar waits do the same inline with
//! `PoisonError::into_inner`.

use std::sync::{Mutex, MutexGuard, PoisonError};

/// [`Mutex`] locking that ignores poison.
pub(crate) trait MutexExt<T: ?Sized> {
    /// Block until the lock is held, poisoned or not.
    fn guard(&self) -> MutexGuard<'_, T>;
}

impl<T: ?Sized> MutexExt<T> for Mutex<T> {
    fn guard(&self) -> MutexGuard<'_, T> {
        self.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// Poison `m` by panicking on another thread while holding it.
    fn poison<T: Send + 'static>(m: &Arc<Mutex<T>>) {
        let held = Arc::clone(m);
        let r = std::thread::spawn(move || {
            let _g = held.lock().unwrap();
            panic!("holder panics");
        })
        .join();
        assert!(r.is_err());
        assert!(m.is_poisoned());
    }

    /// Fails if `guard` unwraps the lock result.
    #[test]
    fn guard_succeeds_after_a_panicking_holder() {
        let m = Arc::new(Mutex::new(7u32));
        poison(&m);
        *m.guard() += 1;
        assert_eq!(*m.guard(), 8);
    }
}
