//! The tunnel kernel: Yen's k shortest loopless paths by hop count, with
//! every spur search a level-synchronous BFS over bitset adjacency rows.
//!
//! [`FixedContext`](crate::FixedContext) routes over the fixed topology's
//! distinct links at unit weight, a simple graph. There the generic
//! [`owan_graph::k_shortest_paths`] (heap Dijkstra spur searches over a
//! [`Graph`](owan_graph::Graph)) returns exactly what [`HopYen::tunnels`]
//! returns, path for path:
//!
//! - **Spur searches.** Dijkstra settles by `(dist, node)` and relaxes on
//!   strict improvement only. With unit weights every node of BFS level
//!   `l - 1` settles before any of level `l`, so a level-`l` node's
//!   predecessor is the lowest-numbered level-`l - 1` node adjacent to
//!   it: the lowest bit of its adjacency row masked by that level's row.
//!   Stopping once the target is reached changes nothing, as stopping
//!   when it settles changes nothing for Dijkstra.
//! - **Bans.** Yen hides, at spur index `i`, the edges out of the spur
//!   node that found paths sharing the root take, and the root's other
//!   nodes. Every hidden edge touches the spur node, which settles first,
//!   so only its out-hops are lost: banned heads of level 1 alone, and
//!   banned sites of every level.
//! - **Order.** Costs are hop counts, integers, so a root's cost plus its
//!   spur's is exact, and equal node sequences have equal costs. The
//!   candidate order `(cost, node sequence)` is total over distinct
//!   candidates, so the pick does not depend on the pool's order.
//!
//! Rows span `n.div_ceil(64)` words, however many sites the topology has.
//! The search keeps its rows in [`HopYen`]'s buffers, so after the first
//! pair it allocates only the paths it returns.

use owan_core::rows::{has_bit, row_sites, set_bit};
use owan_optical::SiteId;

/// Hop-count Yen over one simple undirected graph. See the module docs.
#[derive(Debug, Clone)]
pub(crate) struct HopYen {
    /// Words per site row.
    words: usize,
    /// Adjacency row per site, `words` words each, back to back.
    adj: Vec<u64>,
    /// BFS level rows of the current spur search, back to back.
    levels: Vec<u64>,
    /// Sites the current spur search has reached or may not enter.
    seen: Vec<u64>,
    /// Sites the current spur search may not step to from the spur node.
    heads: Vec<u64>,
    /// The candidate being assembled: a root, then its spur path.
    path: Vec<SiteId>,
}

impl HopYen {
    /// The kernel over `n` sites joined by `links`, each link `(u, v)`
    /// with `u != v` (repeats are harmless).
    pub(crate) fn new(n: usize, links: impl IntoIterator<Item = (SiteId, SiteId)>) -> Self {
        let words = n.div_ceil(64).max(1);
        let mut adj = vec![0u64; n * words];
        for (u, v) in links {
            set_bit(&mut adj[u * words..][..words], v);
            set_bit(&mut adj[v * words..][..words], u);
        }
        HopYen {
            words,
            adj,
            levels: Vec::new(),
            seen: vec![0; words],
            heads: vec![0; words],
            path: Vec::new(),
        }
    }

    /// Up to `k` hop-shortest loopless paths from `src` to `dst`, shortest
    /// first and ties by node sequence: what
    /// [`owan_graph::k_shortest_paths`] returns on the same graph at unit
    /// weights.
    pub(crate) fn tunnels(&mut self, src: SiteId, dst: SiteId, k: usize) -> Vec<Vec<SiteId>> {
        let mut found: Vec<Vec<SiteId>> = Vec::new();
        if k == 0 || src == dst {
            return found;
        }
        let mut path = std::mem::take(&mut self.path);
        path.clear();
        self.seen.fill(0);
        self.heads.fill(0);
        if self.spur_path(src, dst, &mut path) {
            found.push(path.clone());
        }
        let mut candidates: Vec<Vec<SiteId>> = Vec::new();
        while !found.is_empty() && found.len() < k {
            let last = found.last().expect("a found path");
            for i in 0..last.len() - 1 {
                let root = &last[..=i];
                self.seen.fill(0);
                self.heads.fill(0);
                for p in found.iter().filter(|p| p.len() > i && p[..=i] == *root) {
                    set_bit(&mut self.heads, p[i + 1]);
                }
                for &s in &root[..i] {
                    set_bit(&mut self.seen, s);
                }
                path.clear();
                path.extend_from_slice(&root[..i]);
                if self.spur_path(root[i], dst, &mut path)
                    && !found.contains(&path)
                    && !candidates.contains(&path)
                {
                    candidates.push(path.clone());
                }
            }
            let Some(best) = candidates
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| a.len().cmp(&b.len()).then_with(|| a.cmp(b)))
                .map(|(i, _)| i)
            else {
                break;
            };
            found.push(candidates.swap_remove(best));
        }
        self.path = path;
        found
    }

    /// Appends to `out` the hop-shortest path from `spur` to `dst` that
    /// enters no site of `seen` and leaves `spur` to no site of `heads`,
    /// the lowest-numbered predecessor at every step. False, with `out`
    /// unchanged, when no such path exists.
    fn spur_path(&mut self, spur: SiteId, dst: SiteId, out: &mut Vec<SiteId>) -> bool {
        let w = self.words;
        self.levels.clear();
        self.levels.resize(w, 0);
        set_bit(&mut self.levels, spur);
        set_bit(&mut self.seen, spur);
        let mut depth = 0;
        loop {
            let start = self.levels.len();
            self.levels.resize(start + w, 0);
            let (before, next) = self.levels.split_at_mut(start);
            if depth == 0 {
                let out = &self.adj[spur * w..][..w];
                for ((n, &a), &h) in next.iter_mut().zip(out).zip(&self.heads) {
                    *n = a & !h;
                }
            } else {
                for u in row_sites(&before[start - w..]) {
                    for (n, &a) in next.iter_mut().zip(&self.adj[u * w..][..w]) {
                        *n |= a;
                    }
                }
            }
            let mut reached = false;
            for (n, s) in next.iter_mut().zip(self.seen.iter_mut()) {
                *n &= !*s;
                *s |= *n;
                reached |= *n != 0;
            }
            if !reached {
                return false;
            }
            depth += 1;
            if has_bit(next, dst) {
                break;
            }
        }
        let base = out.len();
        out.resize(base + depth + 1, spur);
        out[base + depth] = dst;
        let mut at = dst;
        for level in (1..depth).rev() {
            let frontier = &self.levels[level * w..][..w];
            at = frontier
                .iter()
                .zip(&self.adj[at * w..][..w])
                .enumerate()
                .find_map(|(i, (&f, &a))| {
                    let both = f & a;
                    (both != 0).then(|| i * 64 + both.trailing_zeros() as usize)
                })
                .expect("a level-l site has a neighbor on level l - 1");
            out[base + level] = at;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn square_yields_both_two_hop_paths_lowest_first() {
        let mut yen = HopYen::new(4, [(0, 1), (1, 3), (0, 2), (2, 3)]);
        assert_eq!(yen.tunnels(0, 3, 4), [vec![0, 1, 3], vec![0, 2, 3]]);
        assert_eq!(yen.tunnels(3, 0, 1), [vec![3, 1, 0]]);
    }

    #[test]
    fn empty_for_k_zero_a_self_pair_or_a_cut() {
        let mut yen = HopYen::new(3, [(0, 1)]);
        assert!(yen.tunnels(0, 1, 0).is_empty());
        assert!(yen.tunnels(1, 1, 3).is_empty());
        assert!(yen.tunnels(0, 2, 3).is_empty());
        assert_eq!(yen.tunnels(0, 1, 3), [vec![0, 1]]);
    }

    #[test]
    fn rows_span_words_past_64_sites() {
        // A 130-site path 0 - 1 - … - 129 plus the chord 0 - 129.
        let mut yen = HopYen::new(130, (0..129).map(|s| (s, s + 1)).chain([(0, 129)]));
        let tunnels = yen.tunnels(0, 129, 3);
        assert_eq!(tunnels.len(), 2);
        assert_eq!(tunnels[0], [0, 129]);
        assert_eq!(tunnels[1], (0..130).collect::<Vec<_>>());
    }
}
