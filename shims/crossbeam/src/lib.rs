//! Workspace-local stand-in for the `crossbeam` crate.
//!
//! Only `crossbeam::thread::scope` is provided, implemented on top of
//! `std::thread::scope` (stable since Rust 1.63). Spawn closures receive a
//! `&Scope` argument exactly like crossbeam's, so call sites written as
//! `s.spawn(|_| ...)` compile unchanged.
//!
//! Divergence from upstream: if a child thread panics, `std::thread::scope`
//! re-raises the panic at the end of the scope instead of returning `Err`,
//! so the `Err` arm of the returned `Result` is never taken. Every call
//! site in this repo immediately `.unwrap()`s the result, which makes the
//! two behaviours equivalent in practice.
#![warn(clippy::allow_attributes_without_reason)]

pub mod thread {
    use std::any::Any;
    use std::thread as stdthread;

    /// Mirror of `crossbeam::thread::Scope`, wrapping `std::thread::Scope`.
    pub struct Scope<'scope, 'env: 'scope> {
        inner: &'scope stdthread::Scope<'scope, 'env>,
    }

    impl<'scope, 'env> Clone for Scope<'scope, 'env> {
        fn clone(&self) -> Self {
            *self
        }
    }

    impl<'scope, 'env> Copy for Scope<'scope, 'env> {}

    impl<'scope, 'env> Scope<'scope, 'env> {
        /// Spawn a scoped thread. The closure receives a `&Scope` so it can
        /// spawn further siblings, matching crossbeam's signature.
        pub fn spawn<F, T>(&self, f: F) -> ScopedJoinHandle<'scope, T>
        where
            F: FnOnce(&Scope<'scope, 'env>) -> T + Send + 'scope,
            T: Send + 'scope,
        {
            let scope = *self;
            ScopedJoinHandle { inner: self.inner.spawn(move || f(&scope)) }
        }
    }

    /// Mirror of `crossbeam::thread::ScopedJoinHandle`.
    pub struct ScopedJoinHandle<'scope, T> {
        inner: stdthread::ScopedJoinHandle<'scope, T>,
    }

    impl<'scope, T> ScopedJoinHandle<'scope, T> {
        pub fn join(self) -> Result<T, Box<dyn Any + Send + 'static>> {
            self.inner.join()
        }
    }

    /// Run `f` with a scope in which spawned threads may borrow from the
    /// enclosing stack frame; all threads are joined before returning.
    pub fn scope<'env, F, R>(f: F) -> Result<R, Box<dyn Any + Send + 'static>>
    where
        F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
    {
        Ok(stdthread::scope(|s| f(&Scope { inner: s })))
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn scoped_threads_borrow_and_join() {
        let counter = AtomicUsize::new(0);
        let total = crate::thread::scope(|s| {
            let handles: Vec<_> =
                (0..4).map(|_| s.spawn(|_| counter.fetch_add(1, Ordering::SeqCst))).collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect::<Vec<_>>().len()
        })
        .unwrap();
        assert_eq!(total, 4);
        assert_eq!(counter.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn nested_spawn_through_scope_arg() {
        let flag = AtomicUsize::new(0);
        crate::thread::scope(|s| {
            s.spawn(|s2| {
                s2.spawn(|_| flag.store(7, Ordering::SeqCst));
            });
        })
        .unwrap();
        assert_eq!(flag.load(Ordering::SeqCst), 7);
    }
}
