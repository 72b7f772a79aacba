/// Present so `use serde::Deserialize` resolves in the type namespace too.
pub trait Deserialize<'de>: Sized {}
