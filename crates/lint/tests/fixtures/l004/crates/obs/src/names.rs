//! AVQ-L004 fixture: a names module with one well-formed constant, one
//! badly-formed name, one duplicate, and one dotted attribute key.

/// Fine.
pub const GOOD: &str = "avq.codec.decode.blocks";
/// Uppercase and not dot-namespaced.
pub const BAD_FORM: &str = "AVQ_Decode_Blocks";
/// Same value as GOOD.
pub const DUPLICATE: &str = "avq.codec.decode.blocks";
/// An attribute key is a bare word: no dots.
pub const ATTR_DOTTED: &str = "rows.total";
