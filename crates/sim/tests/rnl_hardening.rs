//! Hardening of the `.rnl` parser against hostile text.
//!
//! `format::from_text` reads netlists from outside the program. Whatever
//! it accepts must be safe to hand to the rest of the stack: arbitrary
//! text, token soup and byte-mutated serializations of real designs
//! either fail to parse with a typed error or parse into a netlist that
//! `levelized` and `CompiledNetlist::new` process without panicking.

use proptest::collection::vec;
use proptest::prelude::*;
use rescue_netlist::{format, generate, renumber, Netlist};
use rescue_sim::compiled::CompiledNetlist;

/// Parses `text`; when that succeeds, levelizes and compiles the result.
fn parse_and_compile(text: &str) {
    if let Ok(net) = format::from_text(text) {
        let (lev, _) = renumber::levelized(&net);
        let _ = CompiledNetlist::new(&lev);
    }
}

/// Words the mutators splice in: every statement keyword, every gate
/// mnemonic and a few gate ids, in and out of range.
const VOCAB: [&str; 24] = [
    "circuit", "input", "output", "=", "#", "\n", "const0", "const1", "buf", "not", "and", "nand",
    "or", "nor", "xor", "xnor", "mux", "dff", "g0", "g1", "g3", "g7", "g40", "g99999",
];

/// Small designs covering combinational, arithmetic and sequential
/// shapes.
fn base_design(pick: usize, seed: u64) -> Netlist {
    match pick {
        0 => generate::c17(),
        1 => generate::adder(2),
        2 => generate::control_fsm(),
        _ => generate::random_logic(4, 30, 2, seed),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary bytes (read lossily as UTF-8) never panic the stack.
    #[test]
    fn arbitrary_text_never_panics(bytes in vec(any::<u8>(), 0..400)) {
        parse_and_compile(&String::from_utf8_lossy(&bytes));
    }

    /// Statement-shaped token soup reaches structural validation far
    /// more often than random bytes do.
    #[test]
    fn token_soup_never_panics(words in vec(0usize..VOCAB.len(), 0..80)) {
        let text: Vec<&str> = words.iter().map(|&w| VOCAB[w]).collect();
        parse_and_compile(&text.join(" "));
    }

    /// Serialized designs with a few edits never panic the stack. Byte
    /// edits overwrite, delete or insert a vocabulary word; line edits
    /// point the last gate id of a line (a port, or a gate's last input)
    /// at any id up to twice the design size.
    #[test]
    fn mutated_designs_never_panic(
        pick in 0usize..4,
        seed in 1u64..1000,
        edits in vec((any::<u64>(), 0usize..4, 0usize..VOCAB.len(), any::<u8>()), 1..6),
    ) {
        let net = base_design(pick, seed);
        let mut bytes = format::to_text(&net).into_bytes();
        for (at, op, word, byte) in edits {
            let pos = (at % (bytes.len() as u64 + 1)) as usize;
            match op {
                0 if pos < bytes.len() => bytes[pos] = byte,
                1 if pos < bytes.len() => {
                    bytes.remove(pos);
                }
                2 => {
                    bytes.splice(pos..pos, VOCAB[word].bytes());
                }
                _ => {
                    let mut lines: Vec<String> = String::from_utf8_lossy(&bytes)
                        .lines()
                        .map(str::to_string)
                        .collect();
                    let n = lines.len().max(1);
                    if let Some(line) = lines.get_mut(pos % n) {
                        let id = (at >> 32) as usize % (2 * net.len() + 2);
                        if let Some(cut) = line.rfind(' ') {
                            line.truncate(cut + 1);
                            line.push_str(&format!("g{id}"));
                        }
                    }
                    bytes = lines.join("\n").into_bytes();
                }
            }
        }
        parse_and_compile(&String::from_utf8_lossy(&bytes));
    }
}

/// The unmutated serializations parse, levelize and compile.
#[test]
fn unmutated_designs_compile() {
    for pick in 0..4 {
        let net = base_design(pick, 7);
        let back = format::from_text(&format::to_text(&net)).expect("round trip");
        assert_eq!(back.len(), net.len());
        parse_and_compile(&format::to_text(&net));
    }
}
