//! A bounded multi-producer multi-consumer FIFO with crossbeam's surface:
//! cloneable `Sender`/`Receiver`, disconnection when the last handle of one
//! side drops, `try_send`, `send`, `recv_timeout`, `len`.
//! One mutex and two condition variables; receivers are woken one at a time.

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

struct State<T> {
    queue: VecDeque<T>,
    senders: usize,
    receivers: usize,
}

struct Chan<T> {
    state: Mutex<State<T>>,
    cap: usize,
    not_empty: Condvar,
    not_full: Condvar,
}

impl<T> Chan<T> {
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        // Every update below leaves the queue and the counts valid, so a
        // guard recovered from a panicked holder is safe to use.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

pub struct Sender<T>(Arc<Chan<T>>);
pub struct Receiver<T>(Arc<Chan<T>>);

/// A channel holding at most `cap` messages (`cap` 0 is treated as 1: this
/// stand-in has no rendezvous mode and the repository never asks for one).
pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
    let chan = Arc::new(Chan {
        state: Mutex::new(State {
            queue: VecDeque::new(),
            senders: 1,
            receivers: 1,
        }),
        cap: cap.max(1),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
    });
    (Sender(chan.clone()), Receiver(chan))
}

#[derive(PartialEq, Eq, Clone, Copy)]
pub struct SendError<T>(pub T);

#[derive(PartialEq, Eq, Clone, Copy)]
pub enum TrySendError<T> {
    Full(T),
    Disconnected(T),
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum RecvTimeoutError {
    Timeout,
    Disconnected,
}

impl<T> fmt::Debug for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SendError(..)")
    }
}

impl<T> fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("sending on a disconnected channel")
    }
}

impl<T> std::error::Error for SendError<T> {}

impl<T> fmt::Debug for TrySendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrySendError::Full(_) => f.write_str("Full(..)"),
            TrySendError::Disconnected(_) => f.write_str("Disconnected(..)"),
        }
    }
}

impl<T> fmt::Display for TrySendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrySendError::Full(_) => f.write_str("sending on a full channel"),
            TrySendError::Disconnected(_) => f.write_str("sending on a disconnected channel"),
        }
    }
}

impl<T> std::error::Error for TrySendError<T> {}

impl fmt::Display for RecvTimeoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecvTimeoutError::Timeout => f.write_str("timed out waiting on receive operation"),
            RecvTimeoutError::Disconnected => {
                f.write_str("channel is empty and disconnected")
            }
        }
    }
}

impl std::error::Error for RecvTimeoutError {}

impl<T> Sender<T> {
    pub fn try_send(&self, msg: T) -> Result<(), TrySendError<T>> {
        let mut st = self.0.lock();
        if st.receivers == 0 {
            return Err(TrySendError::Disconnected(msg));
        }
        if st.queue.len() >= self.0.cap {
            return Err(TrySendError::Full(msg));
        }
        st.queue.push_back(msg);
        drop(st);
        self.0.not_empty.notify_one();
        Ok(())
    }

    /// Blocks while the channel is full.
    pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
        let mut st = self.0.lock();
        loop {
            if st.receivers == 0 {
                return Err(SendError(msg));
            }
            if st.queue.len() < self.0.cap {
                st.queue.push_back(msg);
                drop(st);
                self.0.not_empty.notify_one();
                return Ok(());
            }
            st = self.0.not_full.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }
}

impl<T> Receiver<T> {
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        let deadline = Instant::now() + timeout;
        let mut st = self.0.lock();
        loop {
            if let Some(msg) = st.queue.pop_front() {
                drop(st);
                self.0.not_full.notify_one();
                return Ok(msg);
            }
            if st.senders == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(RecvTimeoutError::Timeout);
            }
            st = self
                .0
                .not_empty
                .wait_timeout(st, deadline - now)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
    }

    pub fn len(&self) -> usize {
        self.0.lock().queue.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.0.lock().senders += 1;
        Sender(self.0.clone())
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.0.lock().receivers += 1;
        Receiver(self.0.clone())
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut st = self.0.lock();
        st.senders -= 1;
        if st.senders == 0 {
            drop(st);
            self.0.not_empty.notify_all();
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut st = self.0.lock();
        st.receivers -= 1;
        if st.receivers == 0 {
            // Like crossbeam, undelivered messages are dropped with the last
            // receiver, and blocked senders wake to see the disconnect.
            let orphaned = std::mem::take(&mut st.queue);
            drop(st);
            drop(orphaned);
            self.0.not_full.notify_all();
        }
    }
}

impl<T> fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Sender { .. }")
    }
}

impl<T> fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Receiver { .. }")
    }
}
