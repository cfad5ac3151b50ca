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

/// A relay path must name at least two sites and none twice (a repeat
/// would waste regenerators / loop).
fn check_relay(relay_sites: &[SiteId]) -> Result<(), ProvisionError> {
    if relay_sites.len() < 2 {
        return Err(ProvisionError::InvalidRelayPath);
    }
    for (i, &s) in relay_sites.iter().enumerate() {
        if relay_sites[i + 1..].contains(&s) {
            return Err(ProvisionError::InvalidRelayPath);
        }
    }
    Ok(())
}

/// The tentative channel marks of a circuit being planned: `(word index,
/// bits)` pairs — only the circuit's own marks, so that two segments of
/// the same circuit cannot take the same channel on a shared fiber,
/// without a clone of the full occupancy matrix.
type Tentative = Vec<(usize, u64)>;

/// What provisioning reads and writes of an optical state: per-fiber
/// channel occupancy and per-site free regenerators, without the circuits.
/// [`OpticalState`] is an `Occupancy` plus circuit storage; a
/// [`CircuitLedger`] is one plus flat circuit records.
///
/// Occupancy is bitset-packed: fiber `f`'s channels live in the
/// `words_per_fiber` u64 words starting at `f * words_per_fiber`, bit
/// `c % 64` of word `c / 64` set when channel `c` is in use. First-fit
/// wavelength selection and occupancy comparisons are word operations, and
/// every `Occupancy` of one plant shares one word layout.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Occupancy {
    /// Packed occupancy words, `words_per_fiber` per fiber.
    channel_words: Vec<u64>,
    /// Word stride per fiber (sized for the widest fiber in the plant).
    words_per_fiber: usize,
    /// Usable channels per fiber (folds in degradation caps); bits at or
    /// beyond this count are never set.
    channels: Vec<u32>,
    /// Free regenerators per site.
    regens_free: Vec<u32>,
}

impl Occupancy {
    /// All channels free, all regenerators available. Each fiber gets its
    /// own channel count ([`FiberPlant::usable_wavelengths`]), so degraded
    /// fibers expose fewer slots.
    pub fn new(plant: &FiberPlant) -> Self {
        let mut occupancy = Occupancy::default();
        occupancy.reset(plant);
        occupancy
    }

    /// Back to [`Self::new`]`(plant)` in place: no allocation once the
    /// buffers have held a plant this size.
    pub fn reset(&mut self, plant: &FiberPlant) {
        self.channels.clear();
        self.channels
            .extend((0..plant.fiber_count()).map(|f| plant.usable_wavelengths(f)));
        self.words_per_fiber = words_for(&self.channels);
        self.channel_words.clear();
        self.channel_words
            .resize(self.words_per_fiber * plant.fiber_count(), 0);
        self.regens_free.clear();
        self.regens_free
            .extend(plant.sites().iter().map(|s| s.regenerators));
    }

    /// Flat word index and bit mask addressing `channel` on `fiber`.
    #[inline]
    fn word_bit(&self, fiber: FiberId, channel: u32) -> (usize, u64) {
        (
            fiber * self.words_per_fiber + (channel as usize) / 64,
            1u64 << (channel % 64),
        )
    }

    /// Free regenerators at every site, as a dense vector. Relay searches
    /// depend on the plant and on exactly this vector, so equal vectors
    /// yield equal candidate lists.
    pub fn free_regen_vec(&self) -> &[u32] {
        &self.regens_free
    }

    /// Usable channels of `fiber`: [`FiberPlant::usable_wavelengths`] of
    /// the plant the occupancy was reset to.
    pub fn usable(&self, fiber: FiberId) -> u32 {
        self.channels[fiber]
    }

    /// Packed occupancy words of `fiber`: the bits first-fit wavelength
    /// selection reads.
    pub fn occupancy_words(&self, fiber: FiberId) -> &[u64] {
        let start = fiber * self.words_per_fiber;
        &self.channel_words[start..start + self.words_per_fiber]
    }

    /// Plans one all-optical segment `from → to` over `route` (`None` when
    /// the two are disconnected): the route must be within `reach_km`, and
    /// the lowest channel free on all its fibers — under the committed
    /// occupancy plus the marks earlier segments of the circuit left in
    /// `tentative` — is marked there and returned. Nothing is committed.
    fn plan_segment(
        &self,
        reach_km: f64,
        (from, to): (SiteId, SiteId),
        route: Option<FiberRoute<'_>>,
        tentative: &mut Tentative,
    ) -> Result<u32, ProvisionError> {
        let route = route.ok_or(ProvisionError::Disconnected { from, to })?;
        if route.length_km > reach_km {
            return Err(ProvisionError::ExceedsReach {
                from,
                to,
                length_km: route.length_km as u64,
                reach_km: reach_km as u64,
            });
        }
        let channel = self
            .first_fit_channel(tentative, route.fibers)
            .ok_or(ProvisionError::NoWavelength { from, to })?;
        for &fid in route.fibers {
            let (word, bit) = self.word_bit(fid, channel);
            match tentative.iter_mut().find(|(w, _)| *w == word) {
                Some(entry) => entry.1 |= bit,
                None => tentative.push((word, bit)),
            }
        }
        Ok(channel)
    }

    /// Commits a fully planned circuit: every interior relay site must
    /// have a free regenerator (a site cannot appear twice, so one
    /// decrement per site suffices); then the tentative marks become
    /// occupancy. On `Err` nothing has changed.
    fn commit(
        &mut self,
        tentative: &[(usize, u64)],
        regen_sites: &[SiteId],
    ) -> Result<(), ProvisionError> {
        for &s in regen_sites {
            if self.regens_free[s] == 0 {
                return Err(ProvisionError::NoRegenerator { site: s });
            }
        }
        for &(word, bits) in tentative {
            debug_assert_eq!(self.channel_words[word] & bits, 0);
            self.channel_words[word] |= bits;
        }
        for &s in regen_sites {
            self.regens_free[s] -= 1;
        }
        Ok(())
    }

    /// Marks `channel` used on every fiber of a known-good segment.
    fn mark(&mut self, fibers: &[FiberId], channel: u32) {
        for &fid in fibers {
            let (word, bit) = self.word_bit(fid, channel);
            debug_assert_eq!(
                self.channel_words[word] & bit,
                0,
                "install: channel {channel} already used on fiber {fid}"
            );
            self.channel_words[word] |= bit;
        }
    }

    /// Consumes one regenerator at each of a known-good circuit's interior
    /// relay sites.
    fn consume_regens(&mut self, regen_sites: &[SiteId]) {
        for &s in regen_sites {
            debug_assert!(self.regens_free[s] > 0, "install: no regenerator at {s}");
            self.regens_free[s] -= 1;
        }
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

/// Dynamic optical-layer state over a [`FiberPlant`].
///
/// Tracks per-fiber channel occupancy and per-site free regenerators (an
/// [`Occupancy`]) and live circuits. Provisioning is all-or-nothing: on
/// error, no state changes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpticalState {
    occupancy: Occupancy,
    /// Live circuits (`None` = torn down).
    circuits: Vec<Option<Circuit>>,
}

impl OpticalState {
    /// Fresh state: all channels free, all regenerators available.
    pub fn new(plant: &FiberPlant) -> Self {
        OpticalState {
            occupancy: Occupancy::new(plant),
            circuits: Vec::new(),
        }
    }

    /// Free regenerators at `site`.
    pub fn free_regenerators(&self, site: SiteId) -> u32 {
        self.occupancy.regens_free[site]
    }

    /// Free regenerators at every site; see [`Occupancy::free_regen_vec`].
    pub fn free_regen_vec(&self) -> &[u32] {
        self.occupancy.free_regen_vec()
    }

    /// Packed occupancy words of `fiber`; see
    /// [`Occupancy::occupancy_words`].
    pub fn occupancy_words(&self, fiber: FiberId) -> &[u64] {
        self.occupancy.occupancy_words(fiber)
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
        self.occupancy.channels[fiber] - self.channels_used(fiber)
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
        check_relay(relay_sites)?;
        let reach = plant.params().optical_reach_km;

        // Plan phase: all segments against a tentative occupancy overlay.
        let mut tentative = Tentative::new();
        let mut segments = Vec::with_capacity(relay_sites.len() - 1);
        for w in relay_sites.windows(2) {
            let route = plant.shortest_fiber_route(w[0], w[1]);
            let view = route.as_ref().map(|(fibers, sites, length_km)| FiberRoute {
                fibers,
                sites,
                length_km: *length_km,
            });
            let channel = self
                .occupancy
                .plan_segment(reach, (w[0], w[1]), view, &mut tentative)?;
            let (fibers, sites, length_km) = route.expect("a planned segment has a route");
            segments.push(Segment {
                fibers,
                sites,
                channel,
                length_km,
            });
        }

        // Regenerators at interior relay sites, then commit.
        let regen_sites: Vec<SiteId> = relay_sites[1..relay_sites.len() - 1].to_vec();
        self.occupancy.commit(&tentative, &regen_sites)?;
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
    /// current occupancy (debug-checked); this is how a
    /// [`CircuitLedger`]'s circuits become a state, in provisioning order,
    /// so the result is structurally identical to one provisioned from
    /// scratch.
    pub fn install(&mut self, circuit: Circuit) -> CircuitId {
        for seg in &circuit.segments {
            self.occupancy.mark(&seg.fibers, seg.channel);
        }
        self.occupancy.consume_regens(&circuit.regen_sites);
        self.circuits.push(Some(circuit));
        self.circuits.len() - 1
    }

    /// Tears down a circuit, freeing its channels and regenerators.
    /// Returns the removed circuit, or `None` if the id was already free.
    pub fn teardown(&mut self, id: CircuitId) -> Option<Circuit> {
        let circuit = self.circuits.get_mut(id)?.take()?;
        let occ = &mut self.occupancy;
        for seg in &circuit.segments {
            for &fid in &seg.fibers {
                let (word, bit) = occ.word_bit(fid, seg.channel);
                debug_assert_ne!(occ.channel_words[word] & bit, 0);
                occ.channel_words[word] &= !bit;
            }
        }
        for &s in &circuit.regen_sites {
            occ.regens_free[s] += 1;
        }
        Some(circuit)
    }

    /// Internal consistency check (used in tests and debug assertions):
    /// channel occupancy must equal the union of live circuits' segments.
    pub fn check_invariants(&self, plant: &FiberPlant) -> Result<(), String> {
        let occ = &self.occupancy;
        let channels: Vec<u32> = (0..plant.fiber_count())
            .map(|f| plant.usable_wavelengths(f))
            .collect();
        if channels != occ.channels || words_for(&channels) != occ.words_per_fiber {
            return Err("channel occupancy out of sync with circuits".into());
        }
        let mut expected = vec![0u64; occ.channel_words.len()];
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
                    let (word, bit) = occ.word_bit(fid, seg.channel);
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
        if expected != occ.channel_words {
            return Err("channel occupancy out of sync with circuits".into());
        }
        for (s, &used) in regen_used.iter().enumerate() {
            let declared = plant.site(s).regenerators;
            if used + occ.regens_free[s] != declared {
                return Err(format!(
                    "site {s}: {used} used + {} free != {declared} regenerators",
                    occ.regens_free[s]
                ));
            }
        }
        Ok(())
    }
}

/// One circuit of a [`CircuitLedger`]: where its relay sites and its
/// per-segment channels (one fewer) start in the two arenas.
#[derive(Debug, Clone, Copy)]
struct Lit {
    relay: usize,
    sites: usize,
    channels: usize,
}

/// A set of lit circuits held flat: an [`Occupancy`] plus, per circuit in
/// provisioning order, its relay path and the channel of each segment as
/// slices of two arenas. A circuit's segments are the [`RouteTable`]
/// routes between consecutive relay sites, so relay path and channels say
/// everything a [`Circuit`] does, and lighting circuits allocates nothing
/// once the arenas have grown.
///
/// [`Self::light`] is the routed provisioner: the checks and state changes
/// of [`OpticalState::provision`], in its order, with each segment's route
/// read from the table instead of a per-segment Dijkstra.
#[derive(Debug, Clone, Default)]
pub struct CircuitLedger {
    occupancy: Occupancy,
    relay_arena: Vec<SiteId>,
    channel_arena: Vec<u32>,
    lit: Vec<Lit>,
    /// Overlay of the circuit being planned; empty between calls' uses.
    tentative: Tentative,
}

impl CircuitLedger {
    /// An empty ledger over `plant`, in place, with room for `circuits`
    /// circuits: lighting that many allocates nothing. Every interior
    /// relay site of a circuit consumes a regenerator, so beyond two
    /// endpoints and one segment a circuit the arenas hold at most as many
    /// entries as the plant has regenerators; one circuit's overlay marks
    /// at most every occupancy word.
    pub fn reset(&mut self, plant: &FiberPlant, circuits: usize) {
        self.occupancy.reset(plant);
        let regens: usize = plant.sites().iter().map(|s| s.regenerators as usize).sum();
        self.relay_arena.clear();
        self.relay_arena.reserve(2 * circuits + regens);
        self.channel_arena.clear();
        self.channel_arena.reserve(circuits + regens);
        self.lit.clear();
        self.lit.reserve(circuits);
        self.tentative.clear();
        self.tentative.reserve(self.occupancy.channel_words.len());
    }

    /// Channel occupancy and free regenerators under the circuits lit.
    pub fn occupancy(&self) -> &Occupancy {
        &self.occupancy
    }

    /// Number of circuits lit.
    pub fn len(&self) -> usize {
        self.lit.len()
    }

    /// True when no circuit is lit.
    pub fn is_empty(&self) -> bool {
        self.lit.is_empty()
    }

    /// Relay path `[src, relay…, dst]` of circuit `i`.
    pub fn relay(&self, i: usize) -> &[SiteId] {
        let c = self.lit[i];
        &self.relay_arena[c.relay..c.relay + c.sites]
    }

    /// Channel of each segment of circuit `i`.
    pub fn channels(&self, i: usize) -> &[u32] {
        let c = self.lit[i];
        &self.channel_arena[c.channels..c.channels + c.sites - 1]
    }

    /// Lights a circuit along `relay_sites` with every segment's route
    /// read from `routes`, which must have been built from `plant`:
    /// `Ok`/`Err`, channels chosen and occupancy afterwards are those of
    /// [`OpticalState::provision`]. All-or-nothing: on `Err` the ledger is
    /// unchanged.
    pub fn light(
        &mut self,
        plant: &FiberPlant,
        routes: &RouteTable,
        relay_sites: &[SiteId],
    ) -> Result<(), ProvisionError> {
        debug_assert_eq!(routes.site_count(), plant.site_count());
        check_relay(relay_sites)?;
        let reach = plant.params().optical_reach_km;
        let channels = self.channel_arena.len();
        self.tentative.clear();
        let planned = relay_sites
            .windows(2)
            .try_for_each(|w| {
                let route = routes.route(w[0], w[1]);
                let channel =
                    self.occupancy
                        .plan_segment(reach, (w[0], w[1]), route, &mut self.tentative)?;
                self.channel_arena.push(channel);
                Ok(())
            })
            .and_then(|()| {
                self.occupancy
                    .commit(&self.tentative, &relay_sites[1..relay_sites.len() - 1])
            });
        match planned {
            Ok(()) => {
                self.lit.push(Lit {
                    relay: self.relay_arena.len(),
                    sites: relay_sites.len(),
                    channels,
                });
                self.relay_arena.extend_from_slice(relay_sites);
            }
            Err(_) => self.channel_arena.truncate(channels),
        }
        planned
    }

    /// Circuit `i` as a [`Circuit`], its segments cloned out of `routes`.
    pub fn circuit(&self, routes: &RouteTable, i: usize) -> Circuit {
        let relay_sites = self.relay(i);
        let segments = relay_sites
            .windows(2)
            .zip(self.channels(i))
            .map(|(w, &channel)| {
                let route = routes.route(w[0], w[1]).expect("a lit segment has a route");
                Segment {
                    fibers: route.fibers.to_vec(),
                    sites: route.sites.to_vec(),
                    channel,
                    length_km: route.length_km,
                }
            })
            .collect();
        Circuit {
            src: relay_sites[0],
            dst: relay_sites[relay_sites.len() - 1],
            segments,
            regen_sites: relay_sites[1..relay_sites.len() - 1].to_vec(),
        }
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

    /// The same relay paths through [`OpticalState::provision`] and
    /// [`CircuitLedger::light`]: same `Ok`/`Err`, same channels, same
    /// occupancy words and regenerator vector after every attempt, and the
    /// ledger's circuits installed in order are the state.
    fn assert_light_equals_provision(p: &FiberPlant, paths: &[&[SiteId]]) -> usize {
        let routes = RouteTable::build(p);
        let mut state = OpticalState::new(p);
        let mut ledger = CircuitLedger::default();
        ledger.reset(p, 0);
        for &path in paths {
            let want = state.provision(p, path);
            let got = ledger.light(p, &routes, path);
            assert_eq!(got, want.clone().map(|_| ()), "{path:?}");
            if let Ok(id) = want {
                let c = state.circuit(id).unwrap();
                let channels: Vec<u32> = c.segments.iter().map(|s| s.channel).collect();
                assert_eq!(ledger.channels(ledger.len() - 1), channels, "{path:?}");
                assert_eq!(ledger.relay(ledger.len() - 1), path);
                assert_eq!(&ledger.circuit(&routes, ledger.len() - 1), c);
            }
            for f in 0..p.fiber_count() {
                assert_eq!(
                    ledger.occupancy().occupancy_words(f),
                    state.occupancy_words(f),
                    "{path:?}: fiber {f}"
                );
            }
            assert_eq!(ledger.occupancy().free_regen_vec(), state.free_regen_vec());
        }
        assert_eq!(ledger.len(), state.circuit_count());
        let mut installed = OpticalState::new(p);
        for i in 0..ledger.len() {
            installed.install(ledger.circuit(&routes, i));
        }
        assert_eq!(installed, state);
        state.check_invariants(p).unwrap();
        ledger.len()
    }

    #[test]
    fn ledger_light_matches_provision_on_the_line() {
        // Successes and every error kind, one wavelength a fiber.
        let mut p = line_plant(500.0, 1);
        let d = p.add_site("D", 2, 0);
        let paths: [&[SiteId]; 7] = [
            &[0, 1, 2],
            &[0, 2],
            &[0, 1, 2],
            &[0, d],
            &[0],
            &[1, 0, 1],
            &[1, 0],
        ];
        assert_eq!(assert_light_equals_provision(&p, &paths), 1);
        // Regenerators run out before wavelengths do.
        let p = line_plant(500.0, 8);
        let paths: [&[SiteId]; 4] = [&[0, 1, 2], &[2, 1, 0], &[0, 1, 2], &[0, 1]];
        assert_eq!(assert_light_equals_provision(&p, &paths), 3);
    }

    #[test]
    fn ledger_light_matches_provision_on_a_ring() {
        // Six sites, 300 km hops, reach 700 km: two-hop segments, relays
        // at every site, three wavelengths shared by crossing circuits.
        let mut p = FiberPlant::new(OpticalParams {
            optical_reach_km: 700.0,
            wavelengths_per_fiber: 3,
            ..Default::default()
        });
        for i in 0..6 {
            p.add_site(&format!("R{i}"), 4, 1 + (i as u32 % 2));
        }
        for i in 0..6 {
            p.add_fiber(i, (i + 1) % 6, 300.0);
        }
        let paths: [&[SiteId]; 12] = [
            &[0, 2, 4],
            &[0, 1],
            &[1, 3, 5],
            &[0, 2],
            &[0, 3],
            &[5, 1, 3],
            &[4, 2, 0],
            &[0, 2, 4, 0],
            &[2, 4],
            &[1, 2],
            &[1, 2],
            &[3, 1],
        ];
        assert_eq!(assert_light_equals_provision(&p, &paths), 5);
    }

    #[test]
    fn ledger_light_matches_provision_over_degraded_fibers() {
        // Per-fiber usable wavelengths differ along one route, so first
        // fit's `min` over the route's fibers decides.
        let mut p = FiberPlant::new(OpticalParams {
            optical_reach_km: 1_000.0,
            wavelengths_per_fiber: 4,
            ..Default::default()
        });
        for i in 0..4 {
            p.add_site(&format!("G{i}"), 4, 2);
        }
        for i in 0..3 {
            p.add_fiber(i, i + 1, 400.0);
        }
        p.set_fiber_wavelength_cap(1, Some(2));
        p.set_fiber_wavelength_cap(2, Some(3));
        let paths: [&[SiteId]; 9] = [
            &[2, 3],
            &[0, 2],
            &[0, 2],
            &[0, 2],
            &[0, 1, 3],
            &[1, 3],
            &[0, 1],
            &[0, 1],
            &[0, 1, 2, 3],
        ];
        assert!(assert_light_equals_provision(&p, &paths) >= 5);
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
