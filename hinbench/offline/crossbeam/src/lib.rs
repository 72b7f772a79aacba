//! Offline stand-in for `crossbeam` 0.8: only `channel::bounded`, the one
//! piece `hin-service` uses (its admission queue and per-request reply slot).

pub mod channel;
