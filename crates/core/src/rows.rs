//! Fixed-width site rows: a set of sites as `[u64; W]`, bit `s % 64` of
//! word `s / 64` for site `s`.
//!
//! The relay search, the hop-level BFS and the relay domains hold their
//! site sets this way. Each kernel is written once, generic over the word
//! count `W`, and `by_row_words!` picks the instance once per search or
//! per pass from the plant's word count. Arrays of a compile-time width
//! live in registers and their word loops unroll, which a slice of
//! run-time length does not allow. Every shipped plant fits one word.
//!
//! A plant may have up to [`MAX_SITES`] sites; `row_words` asserts it
//! where a plant's rows are sized (`ReachRows::build`, hence
//! `PlantCache::build`, and the rate pass's load).

use owan_optical::SiteId;

/// The most words a site row spans.
pub const MAX_ROW_WORDS: usize = 4;

/// The most sites a plant may have: what [`MAX_ROW_WORDS`] words hold.
pub const MAX_SITES: usize = 64 * MAX_ROW_WORDS;

/// The words a row of `n` sites spans (at least one).
///
/// # Panics
///
/// If `n` exceeds [`MAX_SITES`].
pub(crate) fn row_words(n: usize) -> usize {
    assert!(
        n <= MAX_SITES,
        "a {n}-site plant: site rows hold at most {MAX_SITES} sites ({MAX_ROW_WORDS} words)"
    );
    n.div_ceil(64).max(1)
}

/// Runs `$body` with the const `$w` bound to the row width `$words`, one
/// of `1..=MAX_ROW_WORDS`: `by_row_words!(words, |W| kernel::<W>(..))`.
macro_rules! by_row_words {
    ($words:expr, |$w:ident| $body:expr) => {
        match $words {
            1 => {
                const $w: usize = 1;
                $body
            }
            2 => {
                const $w: usize = 2;
                $body
            }
            3 => {
                const $w: usize = 3;
                $body
            }
            4 => {
                const $w: usize = 4;
                $body
            }
            w => unreachable!("{w}-word site rows"),
        }
    };
}
pub(crate) use by_row_words;

/// Row `i` of `W`-word rows stored back to back.
#[inline]
pub(crate) fn row<const W: usize>(rows: &[u64], i: usize) -> &[u64; W] {
    rows[i * W..].first_chunk().expect("row in range")
}

/// Row `i` of `W`-word rows stored back to back, mutably.
#[inline]
pub(crate) fn row_mut<const W: usize>(rows: &mut [u64], i: usize) -> &mut [u64; W] {
    rows[i * W..].first_chunk_mut().expect("row in range")
}

/// Adds site `s` to a row.
#[inline]
pub fn set_bit(set: &mut [u64], s: SiteId) {
    set[s / 64] |= 1 << (s % 64);
}

#[inline]
pub(crate) fn clear_bit(set: &mut [u64], s: SiteId) {
    set[s / 64] &= !(1 << (s % 64));
}

/// True when site `s` is in a row.
#[inline]
pub fn has_bit(set: &[u64], s: SiteId) -> bool {
    set[s / 64] & (1 << (s % 64)) != 0
}

/// The sites of a row, ascending.
pub fn row_sites(set: &[u64]) -> impl Iterator<Item = SiteId> + '_ {
    set.iter().enumerate().flat_map(|(i, &word)| {
        let mut bits = word;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let s = i * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                s
            })
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_span_one_to_four_words() {
        for (n, words) in [
            (0, 1),
            (1, 1),
            (64, 1),
            (65, 2),
            (128, 2),
            (129, 3),
            (256, 4),
        ] {
            assert_eq!(row_words(n), words, "{n} sites");
        }
    }

    #[test]
    #[should_panic(expected = "site rows hold at most 256 sites")]
    fn a_plant_past_the_cap_is_refused() {
        row_words(MAX_SITES + 1);
    }

    #[test]
    fn row_sites_lists_the_set_ascending() {
        let mut set = [0u64; 3];
        for s in [130, 0, 63, 64, 191] {
            set_bit(&mut set, s);
        }
        clear_bit(&mut set, 191);
        assert_eq!(row_sites(&set).collect::<Vec<_>>(), [0, 63, 64, 130]);
        assert!(has_bit(row::<3>(&set, 0), 130));
    }
}
