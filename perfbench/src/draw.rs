//! Seeded request draws for the three workloads. Everything a workload
//! sends is a pure function of `--seed`; the program only ever sees the
//! generated requests.

use cme_api::{
    CacheHierarchy, CompareRequest, EstimatorSpec, LintRequest, NestSource, OptimizeRequest,
    PaddingMode, StrategySpec,
};
use cme_core::{CacheSpec, SamplingConfig};

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for one purpose, so adding draws to one
    /// stream never shifts another.
    pub fn stream(seed: u64, purpose: u64) -> Self {
        let mut r = Rng(seed ^ purpose.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for k in (1..v.len()).rev() {
            v.swap(k, self.below(k + 1));
        }
    }
}

/// The search families of the `search_cold` draw.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Family {
    Ga,
    GaLattice,
    PadThenTile,
    Interchange,
    Oblivious,
    Latency,
}

impl Family {
    pub const ALL: [Family; 6] = [
        Family::Ga,
        Family::GaLattice,
        Family::PadThenTile,
        Family::Interchange,
        Family::Oblivious,
        Family::Latency,
    ];

    /// Metric label (`tileopt.<label>.ms`).
    pub fn label(self) -> &'static str {
        match self {
            Family::Ga => "ga",
            Family::GaLattice => "ga_lattice",
            Family::PadThenTile => "padding",
            Family::Interchange => "interchange",
            Family::Oblivious => "oblivious",
            Family::Latency => "latency",
        }
    }

    pub fn strategy(self) -> StrategySpec {
        match self {
            Family::Ga | Family::GaLattice => StrategySpec::Tiling,
            Family::PadThenTile => StrategySpec::Padding { mode: PaddingMode::PadThenTile },
            Family::Interchange => StrategySpec::Interchange,
            Family::Oblivious => StrategySpec::CacheOblivious,
            Family::Latency => StrategySpec::LatencyBased,
        }
    }

    pub fn estimator(self) -> Option<EstimatorSpec> {
        (self == Family::GaLattice).then_some(EstimatorSpec::lattice)
    }

    /// Families the program refuses up front (400) on affine nests.
    pub fn needs_rectangular(self) -> bool {
        matches!(self, Family::GaLattice | Family::PadThenTile | Family::Interchange)
    }

    /// Families whose search is a GA.
    pub fn runs_ga(self) -> bool {
        matches!(self, Family::Ga | Family::GaLattice | Family::PadThenTile | Family::Interchange)
    }
}

/// The `search_cold` kernels, at sizes the exact simulator checks in
/// well under a second each. GA search cost is nearly size-independent;
/// JACOBI3D's interchange search is not: 12–23 s at 100 and 3–11 s at 64
/// against a steady 3 s at 32, where it and the lattice search stay the
/// slowest pairs.
pub const COLD_KERNELS: [(&str, i64); 5] =
    [("MM", 100), ("JACOBI3D", 32), ("T2D", 200), ("TRMM", 64), ("VPENTA1", 128)];

/// GA seeds drawn per kernel in one `search_cold` pass: each round asks
/// every capable family once with one shared seed. The median sits among
/// GA searches whose cost swings with their seed, so it takes a few
/// rounds to hold still; three keep a pass under a minute.
pub const COLD_ROUNDS: usize = 3;

/// Every (kernel, family) pair the program accepts: all of them on a
/// rectangular nest, the unrestricted families on an affine one.
pub fn capable_pairs() -> Vec<(&'static str, i64, Family)> {
    let mut pairs = Vec::new();
    for (name, size) in COLD_KERNELS {
        let nest = NestSource::kernel_sized(name, size).resolve().expect("registry kernel");
        for family in Family::ALL {
            if nest.is_rectangular() || !family.needs_rectangular() {
                pairs.push((name, size, family));
            }
        }
    }
    pairs
}

/// One `search_cold` request with the labels its checks group by.
#[derive(Debug, Clone)]
pub struct ColdRequest {
    pub kernel: &'static str,
    pub family: Family,
    pub round: usize,
    pub req: OptimizeRequest,
}

/// The `search_cold` pass for `seed`: every capable pair once per round,
/// each round with one GA seed per kernel shared by all its families (so
/// they must agree on `before`), in a seeded order.
pub fn cold_pass(seed: u64) -> Vec<ColdRequest> {
    let mut rng = Rng::stream(seed, 1);
    let pairs = capable_pairs();
    let mut out = Vec::new();
    for round in 0..COLD_ROUNDS {
        let ga_seeds: Vec<u64> = COLD_KERNELS.iter().map(|_| rng.next_u64() >> 1).collect();
        for &(kernel, size, family) in &pairs {
            let k = COLD_KERNELS.iter().position(|(n, _)| *n == kernel).expect("listed kernel");
            let mut req =
                OptimizeRequest::new(NestSource::kernel_sized(kernel, size), family.strategy())
                    .with_seed(ga_seeds[k]);
            req.estimator = family.estimator();
            out.push(ColdRequest { kernel, family, round, req });
        }
    }
    rng.shuffle(&mut out);
    out
}

/// A `serve_near_miss` geometry: one kernel and cache hierarchy whose
/// Diophantine half every request with that geometry shares.
#[derive(Debug, Clone)]
pub struct Geometry {
    pub kernel: &'static str,
    pub size: i64,
    pub cache: CacheHierarchy,
}

pub fn near_miss_geometries() -> Vec<Geometry> {
    vec![
        Geometry {
            kernel: "MM",
            size: 64,
            cache: CacheHierarchy::single(CacheSpec { size: 32 * 1024, line: 256, assoc: 1 }),
        },
        Geometry { kernel: "T2D", size: 256, cache: CacheHierarchy::l1l2_default() },
        Geometry { kernel: "JACOBI3D", size: 48, cache: CacheHierarchy::l1l2_default() },
    ]
}

/// The lean GA budget of the serve workloads: small enough that the
/// displacement solve and the per-level estimator are a large share of a
/// fresh request, and fixed (three generations, no early stop) so a
/// request's cost does not swing with its GA seed.
pub fn lean(mut req: OptimizeRequest) -> OptimizeRequest {
    req.sampling = SamplingConfig::fixed(32);
    req.ga.population = 10;
    req.ga.min_generations = 3;
    req.ga.max_generations = 3;
    req
}

pub fn near_miss_request(g: &Geometry, ga_seed: u64) -> OptimizeRequest {
    lean(
        OptimizeRequest::new(NestSource::kernel_sized(g.kernel, g.size), StrategySpec::Tiling)
            .with_cache(g.cache.clone())
            .with_seed(ga_seed),
    )
}

/// GA seeds of the near-miss warm fill have the top bit set; measured
/// requests never do, so no measured request can hit the outcome cache.
pub const FILL_SEED_BIT: u64 = 1 << 63;

/// Purposes of the per-request near-miss GA seed streams: a range of
/// their own, clear of the small purpose numbers used elsewhere.
const NEAR_MISS_STREAMS: u64 = 1 << 32;

/// The `k`-th measured near-miss request of `seed` and the index of its
/// geometry: geometries in turn from a seeded offset, each request with
/// a fresh GA seed.
pub fn near_miss_draw(seed: u64, k: usize, geometries: &[Geometry]) -> (usize, OptimizeRequest) {
    let g = (Rng::stream(seed, 2).below(geometries.len()) + k) % geometries.len();
    let ga_seed = Rng::stream(seed, NEAR_MISS_STREAMS | k as u64).next_u64() & !FILL_SEED_BIT;
    (g, near_miss_request(&geometries[g], ga_seed))
}

/// One warm key of the `serve_hot` pool.
#[derive(Debug, Clone)]
pub struct HotKey {
    pub path: &'static str,
    pub body: String,
}

fn to_body<T: serde::Serialize>(v: &T) -> String {
    serde_json::to_string(v).expect("requests serialise")
}

/// The warm key pool of `serve_hot` (fixed; 32 keys, well under the
/// server's cache capacities).
pub fn hot_pool() -> Vec<HotKey> {
    let mut pool = Vec::new();
    let registry = [
        ("T2D", 64),
        ("MM", 48),
        ("VPENTA1", 64),
        ("JACOBI3D", 32),
        ("TRMM", 32),
        ("ADI", 64),
        ("MATMUL", 64),
        ("T3DJIK", 24),
    ];
    for (k, &(name, size)) in registry.iter().enumerate() {
        for strategy in [StrategySpec::Tiling, StrategySpec::LatencyBased] {
            let req = lean(
                OptimizeRequest::new(NestSource::kernel_sized(name, size), strategy)
                    .with_seed(100 + k as u64),
            );
            pool.push(HotKey { path: "/optimize", body: to_body(&req) });
        }
    }
    let inline = [("T2D", 48), ("MM", 32), ("T3DIKJ", 24), ("TTRANS", 32), ("VPENTA2", 48)];
    for (k, &(name, size)) in inline.iter().enumerate() {
        let nest = NestSource::kernel_sized(name, size).resolve().expect("registry kernel");
        let req = lean(
            OptimizeRequest::new(NestSource::inline(nest), StrategySpec::Tiling)
                .with_seed(200 + k as u64),
        );
        pool.push(HotKey { path: "/optimize", body: to_body(&req) });
    }
    for (k, &(name, size)) in [("T2D", 48), ("MM", 32), ("TRMM", 24)].iter().enumerate() {
        let base = lean(
            OptimizeRequest::new(NestSource::kernel_sized(name, size), StrategySpec::Tiling)
                .with_seed(300 + k as u64),
        );
        pool.push(HotKey { path: "/compare", body: to_body(&CompareRequest::new(base)) });
    }
    for (name, size) in [
        ("T2D", 64),
        ("MM", 48),
        ("JACOBI3D", 32),
        ("TRMM", 32),
        ("VPENTA1", 64),
        ("BTRIX", 32),
        ("ADD", 16),
        ("DPSSB", 24),
    ] {
        let req = LintRequest::new(NestSource::kernel_sized(name, size));
        pool.push(HotKey { path: "/lint", body: to_body(&req) });
    }
    pool
}

/// A seeded draw over the hot pool, uniform over its keys. The mix is
/// not taken from measured traffic (there is none to take it from), so
/// it carries no tuning constant: every key, and so every endpoint in
/// proportion to its keys in the pool, is equally likely. The seed picks
/// only the sequence.
pub struct HotDraw {
    rng: Rng,
    keys: usize,
}

impl HotDraw {
    pub fn new(seed: u64, pool: &[HotKey]) -> Self {
        HotDraw { rng: Rng::stream(seed, 5), keys: pool.len() }
    }

    pub fn next_index(&mut self) -> usize {
        self.rng.below(self.keys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn cold_pass_is_deterministic_per_seed() {
        let body = |seed| -> Vec<String> {
            cold_pass(seed).iter().map(|c| serde_json::to_string(&c.req).unwrap()).collect()
        };
        assert_eq!(body(7), body(7));
        assert_ne!(body(7), body(8), "another seed draws other GA seeds and order");
    }

    #[test]
    fn cold_pass_covers_every_capable_pair_each_round() {
        let pairs = capable_pairs();
        // TRMM is the affine (triangular) kernel: lattice, padding and
        // interchange refuse it; every other kernel takes all six.
        assert_eq!(pairs.len(), 4 * Family::ALL.len() + 3);
        for (name, _, family) in &pairs {
            assert!(*name != "TRMM" || !family.needs_rectangular(), "{name} × {family:?}");
        }
        for seed in [0, 1, 99] {
            let pass = cold_pass(seed);
            assert_eq!(pass.len(), COLD_ROUNDS * pairs.len());
            for round in 0..COLD_ROUNDS {
                let seen: BTreeSet<(&str, Family)> = pass
                    .iter()
                    .filter(|c| c.round == round)
                    .map(|c| (c.kernel, c.family))
                    .collect();
                let want: BTreeSet<(&str, Family)> =
                    pairs.iter().map(|&(k, _, f)| (k, f)).collect();
                assert_eq!(seen, want, "seed {seed} round {round}");
            }
            // Families of one kernel in one round share the GA seed, so
            // their `before` estimates must agree.
            for c in &pass {
                for d in &pass {
                    if c.kernel == d.kernel && c.round == d.round {
                        assert_eq!(c.req.ga.seed, d.req.ga.seed);
                    }
                }
            }
        }
    }

    #[test]
    fn near_miss_draw_is_fresh_and_deterministic() {
        let geos = near_miss_geometries();
        let a: Vec<OptimizeRequest> = (0..30).map(|k| near_miss_draw(5, k, &geos).1).collect();
        let b: Vec<OptimizeRequest> = (0..30).map(|k| near_miss_draw(5, k, &geos).1).collect();
        assert_eq!(a, b);
        for g in 0..geos.len() {
            let n = (0..30).filter(|&k| near_miss_draw(5, k, &geos).0 == g).count();
            assert_eq!(n, 10, "geometries take turns");
        }
        let seeds: BTreeSet<u64> = a.iter().map(|r| r.ga.seed).collect();
        assert_eq!(seeds.len(), a.len(), "every measured request is a new outcome key");
        assert!(a.iter().all(|r| r.ga.seed & FILL_SEED_BIT == 0));
    }

    #[test]
    fn hot_draw_is_deterministic_and_covers_the_pool() {
        let pool = hot_pool();
        let draw = |seed| {
            let mut d = HotDraw::new(seed, &pool);
            (0..20_000).map(|_| d.next_index()).collect::<Vec<_>>()
        };
        let a = draw(3);
        assert_eq!(a, draw(3));
        assert_ne!(a, draw(4));
        let even = a.len() as f64 / pool.len() as f64;
        for i in 0..pool.len() {
            let n = a.iter().filter(|&&j| j == i).count() as f64;
            assert!((n - even).abs() < 0.2 * even, "key {i}: {n} draws, {even} expected");
        }
        let distinct: BTreeSet<&str> = pool.iter().map(|k| k.body.as_str()).collect();
        assert_eq!(distinct.len(), pool.len(), "pool keys are distinct");
    }
}
