//! Byte-mutated loop nests: truncated, with bytes flipped, with 20-digit
//! integers inserted. Parsing and extracting the dependences returns a
//! nest or a typed error for every mutant, never a panic.

use proptest::prelude::*;
use tiling_core::parse::parse_loop_nest;

/// The nests the mutants start from: both executor families, several
/// statements and arrays, intrinsics, keyword case and optional `DO`.
const SEEDS: [&str; 3] = [
    "FOR i1 = 0 TO 9999 DO\n  FOR i2 = 0 TO 999 DO\n    A(i1, i2) = A(i1-1, i2-1) + A(i1-1, i2) + A(i1, i2-1)\n  ENDFOR\nENDFOR",
    "for i = 0 to 15\nfor j = 0 to 15\nfor k = 0 to 16383\n  A(i, j, k) = sqrt(A(i-1, j, k)) + sqrt(A(i, j-1, k)) + max(A(i, j, k-1), 2)\nendfor\nendfor\nendfor",
    "FOR i = 0 TO 9 DO\n  X(i) = Y(i-2) * 3;\n  Y(i) = X(i-1) + 1\nENDFOR",
];

/// One edit of a nest's bytes, at a position taken modulo its length.
#[derive(Clone, Copy, Debug)]
enum Edit {
    Truncate(usize),
    Flip(usize, u8),
    Insert(usize, u64),
}

impl Edit {
    fn apply(self, bytes: &mut Vec<u8>) {
        let at = |pos: usize, bytes: &Vec<u8>| pos % (bytes.len() + 1);
        match self {
            Edit::Truncate(pos) => bytes.truncate(at(pos, bytes)),
            Edit::Flip(pos, mask) if !bytes.is_empty() => {
                let i = pos % bytes.len();
                bytes[i] ^= mask;
            }
            Edit::Flip(..) => {}
            Edit::Insert(pos, n) => {
                // 20 digits: past u64 once the leading one is 2 or more.
                let digits = format!("{}{:019}", 1 + n % 9, n % 10_000_000_000_000_000_000);
                let i = at(pos, bytes);
                bytes.splice(i..i, digits.into_bytes());
            }
        }
    }
}

fn edit() -> impl Strategy<Value = Edit> {
    prop_oneof![
        (0..4096usize).prop_map(Edit::Truncate),
        (0..4096usize, 1..=255u8).prop_map(|(pos, mask)| Edit::Flip(pos, mask)),
        (0..4096usize, 0..u64::MAX).prop_map(|(pos, n)| Edit::Insert(pos, n)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn mutated_nests_parse_or_fail_typed(
        seed in 0..SEEDS.len(),
        edits in prop::collection::vec(edit(), 1..=4),
    ) {
        let mut bytes = SEEDS[seed].as_bytes().to_vec();
        for e in &edits {
            e.apply(&mut bytes);
        }
        let src = String::from_utf8_lossy(&bytes);
        match parse_loop_nest(&src) {
            Ok(nest) => {
                // A nest's dependences, or why it has none that tile.
                let _ = nest.dependences();
            }
            Err(e) => prop_assert!(e.line >= 1 && e.col >= 1, "{e:?} for {src:?}"),
        }
    }
}
