//! Offline stand-in for `serde` 1.x. `ser` carries the serialization data
//! model with the published trait names and method signatures, so
//! `hin-service::json`'s hand-written `Serializer` compiles unchanged. Nothing
//! in this repository deserializes through serde, so `Deserialize` is a name
//! only and its derive expands to nothing.

pub mod de;
pub mod ser;

pub use de::Deserialize;
pub use ser::{Serialize, Serializer};

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};
