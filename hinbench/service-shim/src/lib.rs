// `crates/hin-service/src/lib.rs` as copied (and, where build.rs says so,
// corrected) into OUT_DIR; its `mod` lines resolve next to the copy.
include!(concat!(env!("OUT_DIR"), "/hin-service-src/lib.rs"));

/// Which source this is: `crates/hin-service/src` as committed, or with the
/// build fixes of this package's build.rs.
pub const SOURCE: &str = env!("HIN_SERVICE_SOURCE");
