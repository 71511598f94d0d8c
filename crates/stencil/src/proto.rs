//! Wire protocol shared by the 2-D and 3-D distributed executors.
//!
//! Every halo message between a pair of ranks is identified by the
//! pipeline step it belongs to and the face direction it carries: the
//! tag pre-flight emits into every program (`step · TAG_STRIDE + dir`,
//! `analyzer::plan::TAG_STRIDE`) and the engine decodes.

use analyzer::plan::TAG_STRIDE;
use msgpass::comm::Tag;

/// Face direction along `i` (messages between `i`-adjacent ranks).
pub const DIR_I: u64 = 0;

/// Face direction along `j` (messages between `j`-adjacent ranks; the
/// only direction the 1-D strip decomposition of the 2-D executor uses).
pub const DIR_J: u64 = 1;

/// The message tag of the `dir`-face exchanged for pipeline step `step`.
#[inline]
pub fn tag(step: usize, dir: u64) -> Tag {
    (step as u64) * TAG_STRIDE + dir
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_are_unique_per_step_and_dir() {
        let mut seen = std::collections::HashSet::new();
        for step in 0..100 {
            for dir in [DIR_I, DIR_J] {
                assert!(seen.insert(tag(step, dir)), "tag collision at {step}/{dir}");
            }
        }
    }
}
