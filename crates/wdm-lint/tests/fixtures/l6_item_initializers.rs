//! L6 fixture: panics in item initializers, outside every fn body.

/// A constant computed by unwrapping.
pub const X: u8 = Some(3u8).unwrap();
/// A function pointer whose closure expects.
pub static F: fn() -> u8 = || Some(1u8).expect("one");
