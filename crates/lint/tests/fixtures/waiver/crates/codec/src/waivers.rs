//! Waiver-hygiene fixture: one waiver in effect, one unused, one with
//! an empty reason, and one that is not valid directive syntax.

fn alloc(claimed: usize) -> (Vec<u8>, Vec<u8>, Vec<u8>, u8) {
    // lint: bounded(claimed was checked against the remaining input)
    let used = Vec::with_capacity(claimed);
    // lint: bounded(nothing on the next line allocates)
    let unused = 1u8;
    // lint: bounded()
    let empty_reason = Vec::with_capacity(claimed);
    // lint: gesundheit(not a real directive)
    let malformed = vec![0u8; claimed];
    (used, empty_reason, malformed, unused)
}
