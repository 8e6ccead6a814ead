//! The hasher of the tuple tables: keys there are [`crate::Sym`]s,
//! `i64`s, column numbers and lengths — machine words the program made,
//! not bytes a client chose — so one multiply per word replaces SipHash.
//! Every multiply is 64×64→128 and **folded** (high half xor low half):
//! hashbrown takes a bucket from the low bits of a hash and a control byte
//! from its top seven, and a plain multiply carries input bits upward
//! only, so integers that differ in their high bits alone would share
//! buckets. It is still keyed: the start state and the closing multiplier
//! are drawn once per process from std's `RandomState`, so which integers
//! collide is not knowable from outside. The string [`crate::Interner`]
//! keeps SipHash.

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// `BuildHasher` of the tuple tables; every instance in a process carries
/// the same key, so tables built on different threads probe alike.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WordState(u64, u64);

impl Default for WordState {
    fn default() -> Self {
        static KEY: OnceLock<WordState> = OnceLock::new();
        *KEY.get_or_init(|| {
            let std = RandomState::new();
            WordState(std.hash_one(0u8), std.hash_one(1u8) | 1)
        })
    }
}

impl BuildHasher for WordState {
    type Hasher = WordHasher;
    fn build_hasher(&self) -> WordHasher {
        WordHasher(self.0, self.1)
    }
}

/// See the module docs.
#[derive(Debug)]
pub(crate) struct WordHasher(u64, u64);

fn folded_multiply(a: u64, b: u64) -> u64 {
    let m = u128::from(a) * u128::from(b);
    (m >> 64) as u64 ^ m as u64
}

impl WordHasher {
    fn word(&mut self, w: u64) {
        self.0 = folded_multiply(self.0 ^ w, 0x9e37_79b9_7f4a_7c15);
    }
}

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(w));
        }
    }
    fn write_u32(&mut self, i: u32) {
        self.word(i.into());
    }
    fn write_u64(&mut self, i: u64) {
        self.word(i);
    }
    fn write_usize(&mut self, i: usize) {
        self.word(i as u64);
    }
    fn finish(&self) -> u64 {
        folded_multiply(self.0, self.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interner::Sym;
    use crate::term::Term;
    use std::collections::HashSet;
    use std::hash::Hash;

    /// Distinct values an ideal hash gives `n` keys over `buckets` slots.
    fn ideal(n: usize, buckets: usize) -> f64 {
        let b = buckets as f64;
        b * (1.0 - (1.0 - 1.0 / b).powi(n as i32))
    }

    /// What hashbrown reads of a hash — the low 16 bits (the bucket, in a
    /// table of 65 536) and the top 7 (the control byte) — must each take
    /// at least 60 % of the distinct values an ideal hash would.
    fn assert_spread<K: Hash>(family: &str, keys: impl Iterator<Item = K>) {
        let state = WordState::default();
        let hashes: Vec<u64> = keys.map(|k| state.hash_one(k)).collect();
        // Each part as `(h << left) >> right`.
        for (part, buckets, left, right) in [
            ("low 16 bits", 1 << 16, 48, 48),
            ("top 7 bits", 1 << 7, 0, 57),
        ] {
            let distinct: HashSet<u64> = hashes.iter().map(|h| (h << left) >> right).collect();
            let floor = 0.6 * ideal(hashes.len(), buckets);
            assert!(
                distinct.len() as f64 >= floor,
                "{family}: {} distinct {part} over {} keys, want >= {floor:.0}",
                distinct.len(),
                hashes.len()
            );
        }
    }

    const N: i64 = 1 << 16;

    #[test]
    fn shifted_and_high_bit_ints_spread() {
        for k in [0, 16, 32, 48] {
            assert_spread(&format!("Int(i << {k})"), (0..N).map(|i| Term::Int(i << k)));
        }
        // Only the top 10 bits differ: a plain multiply would move them up
        // and out, the fold brings them back down.
        assert_spread("Int(i << 54)", (0..1024).map(|i| Term::Int(i << 54)));
        assert_spread("raw i << 54", (0..1024u64).map(|i| i << 54));
    }

    #[test]
    fn dense_syms_and_index_keys_spread() {
        let sym = |i: i64| Term::Const(Sym(i as u32));
        assert_spread("Sym run", (0..N).map(|i| Sym(i as u32)));
        assert_spread("Const(Sym) run", (0..N).map(sym));
        assert_spread(
            "2-column key",
            (0..N).map(|i| vec![sym(i >> 8), Term::Int(i & 255)]),
        );
        assert_spread(
            "3-column key",
            (0..N).map(|i| vec![sym(7), sym(i), Term::Int(i << 40)]),
        );
        // A tuple is hashed as a slice: the set and a probe must agree.
        let tuple: crate::fact::Tuple = vec![sym(1), Term::Int(2)].into();
        let state = WordState::default();
        assert_eq!(state.hash_one(&tuple), state.hash_one(&tuple[..]));
    }

    /// Relations are built on whichever thread evaluates; all of them must
    /// hash alike, or a table moved between threads would probe wrong.
    #[test]
    fn every_build_hasher_in_the_process_agrees() {
        let key = vec![Term::Const(Sym(3)), Term::Int(-1)];
        let here = WordState::default().hash_one(&key);
        assert_eq!(here, WordState::default().hash_one(&key));
        let there = std::thread::spawn(move || WordState::default().hash_one(&key));
        assert_eq!(here, there.join().expect("hashing thread"));
    }
}
