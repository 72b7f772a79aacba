//! Offline stand-in for `parking_lot` 0.12: the `Mutex` subset this
//! repository uses, over `std::sync::Mutex`. Like parking_lot, locking never
//! reports poison: a guard recovered from a panicked holder is handed out.

use std::sync::{self, TryLockError};

pub type MutexGuard<'a, T> = sync::MutexGuard<'a, T>;

#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(sync::Mutex<T>);

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Mutex(sync::Mutex::new(value))
    }
}

impl<T: ?Sized> Mutex<T> {
    #[inline]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[inline]
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(g) => Some(g),
            Err(TryLockError::Poisoned(e)) => Some(e.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        }
    }
}
