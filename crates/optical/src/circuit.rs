//! Dynamic optical state: wavelength occupancy, regenerator consumption, and
//! provisioned circuits.
//!
//! A network-layer link between routers `u` and `v` is implemented by an
//! optical circuit `oc_uv` (paper §3.2). A circuit is a chain of *segments*;
//! each segment is an all-optical stretch between two regeneration points
//! whose physical length must not exceed the optical reach `η` and which
//! must use the **same wavelength channel on every fiber it traverses**
//! (wavelength continuity). Regenerators sit between segments and may
//! convert the signal to a different wavelength, so continuity is only
//! required per segment — exactly the model of §3.2 constraint 2–4.

use crate::plant::{FiberId, FiberPlant, FiberRoute, RouteTable, SiteId};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// Identifier of a provisioned circuit. Ids are never reused within one
/// [`OpticalState`].
pub type CircuitId = usize;

/// An all-optical segment of a circuit between two regeneration points.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Segment {
    /// Fiber ids traversed, in order.
    pub fibers: Vec<FiberId>,
    /// Site sequence (one longer than `fibers`).
    pub sites: Vec<SiteId>,
    /// Wavelength channel index used on every fiber of this segment.
    pub channel: u32,
    /// Total physical length, km.
    pub length_km: f64,
}

/// A provisioned optical circuit implementing one network-layer link.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Circuit {
    /// Source site (router-facing add/drop).
    pub src: SiteId,
    /// Destination site.
    pub dst: SiteId,
    /// The all-optical segments, in order from `src` to `dst`.
    pub segments: Vec<Segment>,
    /// Sites where the circuit is regenerated (interior relay points);
    /// one regenerator is consumed at each.
    pub regen_sites: Vec<SiteId>,
}

impl Circuit {
    /// Total physical length of the circuit, km.
    pub fn length_km(&self) -> f64 {
        self.segments.iter().map(|s| s.length_km).sum()
    }

    /// Total number of fiber hops.
    pub fn fiber_hops(&self) -> usize {
        self.segments.iter().map(|s| s.fibers.len()).sum()
    }
}

/// Why a circuit could not be provisioned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProvisionError {
    /// No fiber route exists between two consecutive relay sites.
    Disconnected { from: SiteId, to: SiteId },
    /// A segment's shortest fiber route exceeds the optical reach.
    ExceedsReach {
        from: SiteId,
        to: SiteId,
        length_km: u64,
        reach_km: u64,
    },
    /// No common free wavelength channel along a segment's fibers.
    NoWavelength { from: SiteId, to: SiteId },
    /// An interior relay site has no free regenerator.
    NoRegenerator { site: SiteId },
    /// The relay path is degenerate (fewer than two sites, or repeats).
    InvalidRelayPath,
}

impl std::fmt::Display for ProvisionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProvisionError::Disconnected { from, to } => {
                write!(f, "no fiber route between sites {from} and {to}")
            }
            ProvisionError::ExceedsReach {
                from,
                to,
                length_km,
                reach_km,
            } => write!(
                f,
                "segment {from}->{to} is {length_km} km, beyond optical reach {reach_km} km"
            ),
            ProvisionError::NoWavelength { from, to } => {
                write!(f, "no common free wavelength on segment {from}->{to}")
            }
            ProvisionError::NoRegenerator { site } => {
                write!(f, "no free regenerator at site {site}")
            }
            ProvisionError::InvalidRelayPath => write!(f, "invalid relay path"),
        }
    }
}

impl std::error::Error for ProvisionError {}

/// Words needed to hold one bit per channel for the widest fiber. Every
/// fiber uses the same stride so occupancy lives in one flat allocation.
fn words_for(channels: &[u32]) -> usize {
    let max = channels.iter().copied().max().unwrap_or(0) as usize;
    max.div_ceil(64).max(1)
}

/// Dynamic optical-layer state over a [`FiberPlant`].
///
/// Tracks per-fiber channel occupancy, per-site free regenerators, and live
/// circuits. Provisioning is all-or-nothing: on error, no state changes.
///
/// Occupancy is bitset-packed: fiber `f`'s channels live in the
/// `words_per_fiber` u64 words starting at `f * words_per_fiber`, bit
/// `c % 64` of word `c / 64` set when channel `c` is in use. First-fit
/// wavelength selection and occupancy comparisons are word operations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpticalState {
    /// Packed occupancy words, `words_per_fiber` per fiber.
    channel_words: Vec<u64>,
    /// Word stride per fiber (sized for the widest fiber in the plant).
    words_per_fiber: usize,
    /// Usable channels per fiber (folds in degradation caps); bits at or
    /// beyond this count are never set.
    channels: Vec<u32>,
    /// Free regenerators per site.
    regens_free: Vec<u32>,
    /// Live circuits (`None` = torn down).
    circuits: Vec<Option<Circuit>>,
}

impl OpticalState {
    /// Fresh state: all channels free, all regenerators available. Each
    /// fiber gets its own channel count ([`FiberPlant::usable_wavelengths`]),
    /// so degraded fibers expose fewer slots.
    pub fn new(plant: &FiberPlant) -> Self {
        let channels: Vec<u32> = (0..plant.fiber_count())
            .map(|f| plant.usable_wavelengths(f))
            .collect();
        let words_per_fiber = words_for(&channels);
        OpticalState {
            channel_words: vec![0; words_per_fiber * plant.fiber_count()],
            words_per_fiber,
            channels,
            regens_free: plant.sites().iter().map(|s| s.regenerators).collect(),
            circuits: Vec::new(),
        }
    }

    /// Flat word index and bit mask addressing `channel` on `fiber`.
    #[inline]
    fn word_bit(&self, fiber: FiberId, channel: u32) -> (usize, u64) {
        (
            fiber * self.words_per_fiber + (channel as usize) / 64,
            1u64 << (channel % 64),
        )
    }

    /// Free regenerators at `site`.
    pub fn free_regenerators(&self, site: SiteId) -> u32 {
        self.regens_free[site]
    }

    /// Free regenerators at every site, as a dense vector. Used as a cache
    /// key: relay-candidate computations depend on the plant and on exactly
    /// this vector, so equal vectors yield equal candidate lists.
    pub fn free_regen_vec(&self) -> &[u32] {
        &self.regens_free
    }

    /// Packed occupancy words of `fiber`. First-fit wavelength selection
    /// reads exactly these bits, so two states with equal words on every
    /// fiber a provisioning attempt can touch make identical channel
    /// choices — occupancy-probe skip tests compare these slices.
    pub fn occupancy_words(&self, fiber: FiberId) -> &[u64] {
        let start = fiber * self.words_per_fiber;
        &self.channel_words[start..start + self.words_per_fiber]
    }

    /// Whether `channel` is in use on `fiber`.
    pub fn channel_in_use(&self, fiber: FiberId, channel: u32) -> bool {
        let (word, bit) = self.word_bit(fiber, channel);
        self.channel_words[word] & bit != 0
    }

    /// Number of channels in use on `fiber`.
    pub fn channels_used(&self, fiber: FiberId) -> u32 {
        self.occupancy_words(fiber)
            .iter()
            .map(|w| w.count_ones())
            .sum()
    }

    /// Number of free channels on `fiber`.
    pub fn channels_free(&self, fiber: FiberId) -> u32 {
        self.channels[fiber] - self.channels_used(fiber)
    }

    /// The circuit with id `id`, if still provisioned.
    pub fn circuit(&self, id: CircuitId) -> Option<&Circuit> {
        self.circuits.get(id).and_then(|c| c.as_ref())
    }

    /// Iterator over `(id, circuit)` for all live circuits.
    pub fn circuits(&self) -> impl Iterator<Item = (CircuitId, &Circuit)> {
        self.circuits
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.as_ref().map(|c| (i, c)))
    }

    /// Number of live circuits.
    pub fn circuit_count(&self) -> usize {
        self.circuits.iter().filter(|c| c.is_some()).count()
    }

    /// Number of live circuits between `u` and `v` (either direction).
    pub fn circuits_between(&self, u: SiteId, v: SiteId) -> usize {
        self.circuits()
            .filter(|(_, c)| (c.src == u && c.dst == v) || (c.src == v && c.dst == u))
            .count()
    }

    /// Provisions a circuit along the given relay path
    /// `[src, relay…, dst]`. Each consecutive pair becomes one all-optical
    /// segment routed over the shortest fiber route; every interior site
    /// consumes one regenerator. Returns the new circuit id.
    ///
    /// All-or-nothing: on `Err`, the state is unchanged.
    pub fn provision(
        &mut self,
        plant: &FiberPlant,
        relay_sites: &[SiteId],
    ) -> Result<CircuitId, ProvisionError> {
        self.provision_with(plant, relay_sites, |from, to| {
            plant.shortest_route(from, to).map(Cow::Owned)
        })
    }

    /// [`Self::provision`] with every segment's route read from `routes`
    /// instead of a per-segment Dijkstra. `routes` must have been built
    /// from `plant`; results, state changes and error order are then
    /// identical to [`Self::provision`].
    pub fn provision_routed(
        &mut self,
        plant: &FiberPlant,
        routes: &RouteTable,
        relay_sites: &[SiteId],
    ) -> Result<CircuitId, ProvisionError> {
        debug_assert_eq!(routes.site_count(), plant.site_count());
        self.provision_with(plant, relay_sites, |from, to| {
            routes.route(from, to).map(Cow::Borrowed)
        })
    }

    fn provision_with<'r>(
        &mut self,
        plant: &FiberPlant,
        relay_sites: &[SiteId],
        route_of: impl Fn(SiteId, SiteId) -> Option<Cow<'r, FiberRoute>>,
    ) -> Result<CircuitId, ProvisionError> {
        if relay_sites.len() < 2 {
            return Err(ProvisionError::InvalidRelayPath);
        }
        // A site may not appear twice (would waste regenerators / loop).
        for (i, &s) in relay_sites.iter().enumerate() {
            if relay_sites[i + 1..].contains(&s) {
                return Err(ProvisionError::InvalidRelayPath);
            }
        }

        let reach = plant.params().optical_reach_km;

        // Plan phase: compute all segments against a tentative occupancy
        // overlay so that two segments of the same circuit cannot take the
        // same channel on a shared fiber. The overlay is a short list of
        // (word index, bits) pairs — only the circuit's own marks — instead
        // of a clone of the full occupancy matrix.
        let mut tentative: Vec<(usize, u64)> = Vec::new();
        let mut segments = Vec::with_capacity(relay_sites.len() - 1);
        for w in relay_sites.windows(2) {
            let (from, to) = (w[0], w[1]);
            let route = route_of(from, to).ok_or(ProvisionError::Disconnected { from, to })?;
            if route.length_km > reach {
                return Err(ProvisionError::ExceedsReach {
                    from,
                    to,
                    length_km: route.length_km as u64,
                    reach_km: reach as u64,
                });
            }
            let channel = self
                .first_fit_channel(&tentative, &route.fibers)
                .ok_or(ProvisionError::NoWavelength { from, to })?;
            for &fid in &route.fibers {
                let (word, bit) = self.word_bit(fid, channel);
                match tentative.iter_mut().find(|(w, _)| *w == word) {
                    Some(entry) => entry.1 |= bit,
                    None => tentative.push((word, bit)),
                }
            }
            let FiberRoute {
                fibers,
                sites,
                length_km,
            } = route.into_owned();
            segments.push(Segment {
                fibers,
                sites,
                channel,
                length_km,
            });
        }

        // Regenerators at interior relay sites.
        let regen_sites: Vec<SiteId> = relay_sites[1..relay_sites.len() - 1].to_vec();
        for &s in &regen_sites {
            if self.regens_free[s] == 0 {
                return Err(ProvisionError::NoRegenerator { site: s });
            }
        }
        // Note: the same site cannot appear twice (checked above), so one
        // decrement per site suffices.

        // Commit.
        for &(word, bits) in &tentative {
            debug_assert_eq!(self.channel_words[word] & bits, 0);
            self.channel_words[word] |= bits;
        }
        for &s in &regen_sites {
            self.regens_free[s] -= 1;
        }
        let circuit = Circuit {
            src: *relay_sites.first().expect("non-empty"),
            dst: *relay_sites.last().expect("non-empty"),
            segments,
            regen_sites,
        };
        self.circuits.push(Some(circuit));
        Ok(self.circuits.len() - 1)
    }

    /// Provisions a direct (regeneration-free if possible) circuit between
    /// two sites — shorthand for `provision(plant, &[src, dst])`.
    pub fn provision_direct(
        &mut self,
        plant: &FiberPlant,
        src: SiteId,
        dst: SiteId,
    ) -> Result<CircuitId, ProvisionError> {
        self.provision(plant, &[src, dst])
    }

    /// Installs a pre-computed circuit verbatim: marks its segments'
    /// channels and consumes its regenerators without re-running route or
    /// wavelength selection. The caller guarantees the circuit fits the
    /// current occupancy (debug-checked); this is used to re-assemble a
    /// known-good circuit set in canonical provisioning order after an
    /// incremental rebuild, so the resulting state is structurally
    /// identical to one built from scratch.
    pub fn install(&mut self, circuit: Circuit) -> CircuitId {
        for seg in &circuit.segments {
            for &fid in &seg.fibers {
                let (word, bit) = self.word_bit(fid, seg.channel);
                debug_assert_eq!(
                    self.channel_words[word] & bit,
                    0,
                    "install: channel {} already used on fiber {fid}",
                    seg.channel
                );
                self.channel_words[word] |= bit;
            }
        }
        for &s in &circuit.regen_sites {
            debug_assert!(self.regens_free[s] > 0, "install: no regenerator at {s}");
            self.regens_free[s] -= 1;
        }
        self.circuits.push(Some(circuit));
        self.circuits.len() - 1
    }

    /// Tears down a circuit, freeing its channels and regenerators.
    /// Returns the removed circuit, or `None` if the id was already free.
    pub fn teardown(&mut self, id: CircuitId) -> Option<Circuit> {
        let circuit = self.circuits.get_mut(id)?.take()?;
        for seg in &circuit.segments {
            for &fid in &seg.fibers {
                let (word, bit) = self.word_bit(fid, seg.channel);
                debug_assert_ne!(self.channel_words[word] & bit, 0);
                self.channel_words[word] &= !bit;
            }
        }
        for &s in &circuit.regen_sites {
            self.regens_free[s] += 1;
        }
        Some(circuit)
    }

    /// Internal consistency check (used in tests and debug assertions):
    /// channel occupancy must equal the union of live circuits' segments.
    pub fn check_invariants(&self, plant: &FiberPlant) -> Result<(), String> {
        let channels: Vec<u32> = (0..plant.fiber_count())
            .map(|f| plant.usable_wavelengths(f))
            .collect();
        if channels != self.channels || words_for(&channels) != self.words_per_fiber {
            return Err("channel occupancy out of sync with circuits".into());
        }
        let mut expected = vec![0u64; self.channel_words.len()];
        let mut regen_used = vec![0u32; plant.site_count()];
        for (id, c) in self.circuits() {
            for seg in &c.segments {
                for &fid in &seg.fibers {
                    if seg.channel >= channels[fid] {
                        return Err(format!(
                            "circuit {id}: channel {} beyond fiber {fid}'s {} usable wavelengths",
                            seg.channel,
                            plant.usable_wavelengths(fid)
                        ));
                    }
                    let (word, bit) = self.word_bit(fid, seg.channel);
                    if expected[word] & bit != 0 {
                        return Err(format!(
                            "circuit {id}: channel {} double-booked on fiber {fid}",
                            seg.channel
                        ));
                    }
                    expected[word] |= bit;
                }
            }
            for &s in &c.regen_sites {
                regen_used[s] += 1;
            }
        }
        if expected != self.channel_words {
            return Err("channel occupancy out of sync with circuits".into());
        }
        for (s, &used) in regen_used.iter().enumerate() {
            let declared = plant.site(s).regenerators;
            if used + self.regens_free[s] != declared {
                return Err(format!(
                    "site {s}: {used} used + {} free != {declared} regenerators",
                    self.regens_free[s]
                ));
            }
        }
        Ok(())
    }

    /// Lowest channel index free on every fiber of `fibers`, given the
    /// committed occupancy plus a tentative overlay of `(word, bits)`
    /// marks. Fibers may expose different channel counts (per-fiber
    /// degradation caps); a channel only qualifies if it exists — and is
    /// free — on every fiber. Word-parallel: ORs the fibers' words, masks
    /// off channels beyond the qualifying count, and takes the lowest
    /// free bit.
    fn first_fit_channel(&self, tentative: &[(usize, u64)], fibers: &[FiberId]) -> Option<u32> {
        let channels = fibers
            .iter()
            .map(|&f| self.channels[f])
            .min()
            .unwrap_or_else(|| self.channels.first().copied().unwrap_or(0));
        for w in 0..self.words_per_fiber {
            let base = (w as u32) * 64;
            if base >= channels {
                break;
            }
            let mut used = 0u64;
            for &f in fibers {
                let word = f * self.words_per_fiber + w;
                used |= self.channel_words[word];
                for &(t, bits) in tentative {
                    if t == word {
                        used |= bits;
                    }
                }
            }
            let remaining = channels - base;
            let mask = if remaining >= 64 {
                !0u64
            } else {
                (1u64 << remaining) - 1
            };
            let free = !used & mask;
            if free != 0 {
                return Some(base + free.trailing_zeros());
            }
        }
        None
    }
}

/// Occupancy-only replay of an [`OpticalState`]: the packed channel words
/// and free-regenerator vector, without circuit storage or route/wavelength
/// validation. Incremental rebuilds replay a previous build's resource
/// consumption against this instead of cloning a full state — installing a
/// circuit is a handful of word ORs and regenerator decrements, and
/// occupancy-probe comparisons against a live [`OpticalState`] are word
/// compares (the two share one word layout per plant).
#[derive(Debug, Clone, PartialEq)]
pub struct OccupancyShadow {
    words: Vec<u64>,
    words_per_fiber: usize,
    regens_free: Vec<u32>,
}

impl OccupancyShadow {
    /// Fresh shadow with the same word layout as `OpticalState::new(plant)`.
    pub fn new(plant: &FiberPlant) -> Self {
        let channels: Vec<u32> = (0..plant.fiber_count())
            .map(|f| plant.usable_wavelengths(f))
            .collect();
        let words_per_fiber = words_for(&channels);
        OccupancyShadow {
            words: vec![0; words_per_fiber * plant.fiber_count()],
            words_per_fiber,
            regens_free: plant.sites().iter().map(|s| s.regenerators).collect(),
        }
    }

    /// Replays a known-good circuit's resource consumption: marks its
    /// segments' channels and consumes its regenerators.
    pub fn install(&mut self, circuit: &Circuit) {
        for seg in &circuit.segments {
            for &fid in &seg.fibers {
                let word = fid * self.words_per_fiber + (seg.channel as usize) / 64;
                let bit = 1u64 << (seg.channel % 64);
                debug_assert_eq!(self.words[word] & bit, 0);
                self.words[word] |= bit;
            }
        }
        for &s in &circuit.regen_sites {
            debug_assert!(self.regens_free[s] > 0);
            self.regens_free[s] -= 1;
        }
    }

    /// Packed occupancy words of `fiber`, layout-compatible with
    /// [`OpticalState::occupancy_words`].
    pub fn occupancy_words(&self, fiber: FiberId) -> &[u64] {
        let start = fiber * self.words_per_fiber;
        &self.words[start..start + self.words_per_fiber]
    }

    /// Free regenerators at every site.
    pub fn free_regen_vec(&self) -> &[u32] {
        &self.regens_free
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plant::OpticalParams;

    /// A / B / C in a line, 400 km per hop; B has regenerators.
    fn line_plant(reach: f64, wavelengths: u32) -> FiberPlant {
        let params = OpticalParams {
            optical_reach_km: reach,
            wavelengths_per_fiber: wavelengths,
            ..Default::default()
        };
        let mut p = FiberPlant::new(params);
        let a = p.add_site("A", 4, 0);
        let b = p.add_site("B", 4, 2);
        let c = p.add_site("C", 4, 0);
        p.add_fiber(a, b, 400.0);
        p.add_fiber(b, c, 400.0);
        p
    }

    #[test]
    fn direct_circuit_within_reach() {
        let p = line_plant(1_000.0, 4);
        let mut s = OpticalState::new(&p);
        let id = s.provision_direct(&p, 0, 2).unwrap();
        let c = s.circuit(id).unwrap();
        assert_eq!(c.segments.len(), 1);
        assert!(c.regen_sites.is_empty());
        assert_eq!(c.length_km(), 800.0);
        s.check_invariants(&p).unwrap();
    }

    #[test]
    fn beyond_reach_needs_relay() {
        let p = line_plant(500.0, 4);
        let mut s = OpticalState::new(&p);
        // Direct is rejected: 800 km > 500 km reach.
        let err = s.provision_direct(&p, 0, 2).unwrap_err();
        assert!(matches!(err, ProvisionError::ExceedsReach { .. }));
        // Via B it works and consumes one regenerator.
        let id = s.provision(&p, &[0, 1, 2]).unwrap();
        let c = s.circuit(id).unwrap();
        assert_eq!(c.segments.len(), 2);
        assert_eq!(c.regen_sites, vec![1]);
        assert_eq!(s.free_regenerators(1), 1);
        s.check_invariants(&p).unwrap();
    }

    #[test]
    fn regenerators_exhaust() {
        let p = line_plant(500.0, 8);
        let mut s = OpticalState::new(&p);
        s.provision(&p, &[0, 1, 2]).unwrap();
        s.provision(&p, &[0, 1, 2]).unwrap();
        let err = s.provision(&p, &[0, 1, 2]).unwrap_err();
        assert_eq!(err, ProvisionError::NoRegenerator { site: 1 });
        s.check_invariants(&p).unwrap();
    }

    #[test]
    fn wavelengths_exhaust_per_fiber() {
        let p = line_plant(1_000.0, 2);
        let mut s = OpticalState::new(&p);
        s.provision_direct(&p, 0, 1).unwrap();
        s.provision_direct(&p, 0, 1).unwrap();
        let err = s.provision_direct(&p, 0, 1).unwrap_err();
        assert_eq!(err, ProvisionError::NoWavelength { from: 0, to: 1 });
        // The other fiber is untouched.
        assert_eq!(s.channels_free(1), 2);
    }

    #[test]
    fn first_fit_assigns_distinct_channels() {
        let p = line_plant(1_000.0, 4);
        let mut s = OpticalState::new(&p);
        let id0 = s.provision_direct(&p, 0, 1).unwrap();
        let id1 = s.provision_direct(&p, 0, 1).unwrap();
        assert_eq!(s.circuit(id0).unwrap().segments[0].channel, 0);
        assert_eq!(s.circuit(id1).unwrap().segments[0].channel, 1);
    }

    #[test]
    fn teardown_frees_resources() {
        let p = line_plant(500.0, 2);
        let mut s = OpticalState::new(&p);
        let id = s.provision(&p, &[0, 1, 2]).unwrap();
        assert_eq!(s.free_regenerators(1), 1);
        assert_eq!(s.channels_used(0), 1);
        let c = s.teardown(id).unwrap();
        assert_eq!(c.src, 0);
        assert_eq!(s.free_regenerators(1), 2);
        assert_eq!(s.channels_used(0), 0);
        assert!(s.teardown(id).is_none(), "double teardown is a no-op");
        s.check_invariants(&p).unwrap();
    }

    #[test]
    fn failed_provision_leaves_state_unchanged() {
        let p = line_plant(500.0, 1);
        let mut s = OpticalState::new(&p);
        s.provision(&p, &[0, 1, 2]).unwrap(); // consumes channel 0 on both fibers
        let before = s.clone();
        // Fails on wavelength (fiber full), even though a regenerator remains.
        let err = s.provision(&p, &[0, 1, 2]).unwrap_err();
        assert!(matches!(err, ProvisionError::NoWavelength { .. }));
        assert_eq!(s.channels_used(0), before.channels_used(0));
        assert_eq!(s.free_regenerators(1), before.free_regenerators(1));
    }

    #[test]
    fn wavelength_conversion_at_regenerator() {
        // Fiber A-B full on channel 0 only; regenerator at B lets the A-C
        // circuit use channel 1 on A-B and channel 0 on B-C.
        let p = line_plant(500.0, 2);
        let mut s = OpticalState::new(&p);
        s.provision_direct(&p, 0, 1).unwrap(); // takes channel 0 on fiber 0
        let id = s.provision(&p, &[0, 1, 2]).unwrap();
        let c = s.circuit(id).unwrap();
        assert_eq!(c.segments[0].channel, 1, "converted on first segment");
        assert_eq!(c.segments[1].channel, 0, "fresh fiber uses channel 0");
        s.check_invariants(&p).unwrap();
    }

    #[test]
    fn disconnected_sites_rejected() {
        let mut p = line_plant(1_000.0, 2);
        let d = p.add_site("D", 2, 0);
        let mut s = OpticalState::new(&p);
        let err = s.provision_direct(&p, 0, d).unwrap_err();
        assert_eq!(err, ProvisionError::Disconnected { from: 0, to: d });
    }

    #[test]
    fn degenerate_relay_paths_rejected() {
        let p = line_plant(1_000.0, 2);
        let mut s = OpticalState::new(&p);
        assert_eq!(
            s.provision(&p, &[0]).unwrap_err(),
            ProvisionError::InvalidRelayPath
        );
        assert_eq!(
            s.provision(&p, &[0, 1, 0]).unwrap_err(),
            ProvisionError::InvalidRelayPath
        );
    }

    #[test]
    fn circuits_between_counts_both_directions() {
        let p = line_plant(1_000.0, 4);
        let mut s = OpticalState::new(&p);
        s.provision_direct(&p, 0, 1).unwrap();
        s.provision_direct(&p, 1, 0).unwrap();
        assert_eq!(s.circuits_between(0, 1), 2);
        assert_eq!(s.circuits_between(1, 0), 2);
        assert_eq!(s.circuits_between(0, 2), 0);
    }

    #[test]
    fn degraded_fiber_limits_channels() {
        let mut p = line_plant(1_000.0, 4);
        p.set_fiber_wavelength_cap(0, Some(1));
        let mut s = OpticalState::new(&p);
        assert_eq!(s.channels_free(0), 1);
        assert_eq!(s.channels_free(1), 4);
        s.provision_direct(&p, 0, 1).unwrap();
        let err = s.provision_direct(&p, 0, 1).unwrap_err();
        assert_eq!(err, ProvisionError::NoWavelength { from: 0, to: 1 });
        s.check_invariants(&p).unwrap();
    }

    #[test]
    fn first_fit_spans_heterogeneous_caps() {
        // A segment crossing a degraded fiber (2 channels) and a healthy
        // fiber (4 channels) may only use channels that exist on both.
        let mut p = line_plant(1_000.0, 4);
        p.set_fiber_wavelength_cap(0, Some(2));
        let mut s = OpticalState::new(&p);
        // Occupy channel 0 on the healthy fiber so the A-C segment must
        // find a channel free on both: channel 1.
        s.provision_direct(&p, 1, 2).unwrap();
        let id = s.provision_direct(&p, 0, 2).unwrap();
        assert_eq!(s.circuit(id).unwrap().segments[0].channel, 1);
        // Channels 2 and 3 exist only on the healthy fiber: one more A-C
        // circuit is impossible even though fiber 1 has free channels.
        s.provision_direct(&p, 0, 2).unwrap_err();
        s.check_invariants(&p).unwrap();
    }

    #[test]
    fn cap_restoration_reexposes_channels() {
        let mut p = line_plant(1_000.0, 4);
        p.set_fiber_wavelength_cap(0, Some(1));
        assert_eq!(p.usable_wavelengths(0), 1);
        p.set_fiber_wavelength_cap(0, None);
        assert_eq!(p.usable_wavelengths(0), 4);
        let s = OpticalState::new(&p);
        assert_eq!(s.channels_free(0), 4);
    }

    #[test]
    fn routed_provisioning_matches_per_segment_dijkstra() {
        // Same relay paths through both entry points, successes and every
        // error kind: ids, circuits, occupancy and errors must coincide.
        let mut p = line_plant(500.0, 1);
        let d = p.add_site("D", 2, 0);
        let routes = RouteTable::build(&p);
        let mut a = OpticalState::new(&p);
        let mut b = OpticalState::new(&p);
        let paths: [&[SiteId]; 6] = [&[0, 1, 2], &[0, 2], &[0, 1, 2], &[0, d], &[0], &[1, 0]];
        for path in paths {
            assert_eq!(a.provision(&p, path), b.provision_routed(&p, &routes, path));
            assert_eq!(a, b);
        }
        a.check_invariants(&p).unwrap();
    }

    #[test]
    fn ids_not_reused_after_teardown() {
        let p = line_plant(1_000.0, 4);
        let mut s = OpticalState::new(&p);
        let id0 = s.provision_direct(&p, 0, 1).unwrap();
        s.teardown(id0);
        let id1 = s.provision_direct(&p, 0, 1).unwrap();
        assert_ne!(id0, id1);
    }
}
