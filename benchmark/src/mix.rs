//! Workload inputs, generated from the seed alone.
//!
//! Every workload draws from one wild mix: an Alexa crawl month, an npm
//! month and a malware-feed month from `jsdetect_corpus::wild`, deduplicated
//! by content so each entry is one distinct set of bytes (one cache key).
//! The workloads differ in how they replay that mix and in the state of the
//! verdict store they replay it against.

use jsdetect_corpus::wild::{
    alexa_population, malware_population, npm_population, MalwareSource, WildScript,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Population sizes at scale 1.0 (about 2,500 distinct scripts, 4 MB).
const ALEXA_SITES: usize = 200;
const NPM_PACKAGES: usize = 240;
const HYNEK_SAMPLES: usize = 800;
/// Crawl months (0-based within the 65-month window): late Alexa/npm,
/// mid-window malware.
const WEB_MONTH: usize = 64;
const MALWARE_MONTH: usize = 30;

/// Size of the popular set `serve_open` repeats (CDN-hosted libraries).
pub const POPULAR: usize = 16;
/// Share of `serve_open` requests drawn from the popular set.
pub const REPEAT_SHARE: f64 = 1.0 / 3.0;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Crawl scan: every script misses a fresh, empty store.
    ScanCold,
    /// Re-crawl: every script hits a store populated during set-up.
    RescanWarm,
    /// Daemon traffic: a third repeats a popular set, the rest is fresh.
    ServeOpen,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::ScanCold, Workload::RescanWarm, Workload::ServeOpen];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ScanCold => "scan_cold",
            Workload::RescanWarm => "rescan_warm",
            Workload::ServeOpen => "serve_open",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Whether the store is populated once during set-up and shared by
    /// every pass and daemon (otherwise each gets a fresh, empty one).
    pub fn warm_store(self) -> bool {
        self == Workload::RescanWarm
    }
}

/// One workload's inputs: the distinct scripts plus the order in which the
/// batch passes replay them (indices into `scripts`).
pub struct Inputs {
    pub scripts: Vec<WildScript>,
    pub batch: Vec<usize>,
    pub bytes: usize,
    popular: Vec<usize>,
    rest: Vec<usize>,
    cycle: bool,
}

impl Inputs {
    pub fn generate(workload: Workload, seed: u64, scale: f64) -> Inputs {
        let n = |base: usize| ((base as f64 * scale).round() as usize).max(1);
        let mut all = alexa_population(WEB_MONTH, n(ALEXA_SITES), 1, seed);
        all.extend(npm_population(WEB_MONTH, n(NPM_PACKAGES), 1, seed));
        all.extend(malware_population(MalwareSource::Hynek, MALWARE_MONTH, n(HYNEK_SAMPLES), seed));
        let mut seen = HashSet::new();
        let scripts: Vec<WildScript> =
            all.into_iter().filter(|s| seen.insert(s.src.clone())).collect();
        let bytes = scripts.iter().map(|s| s.src.len()).sum();

        let mut rng = StdRng::seed_from_u64(seed ^ 0x5e7e);
        let mut order: Vec<usize> = (0..scripts.len()).collect();
        order.shuffle(&mut rng);
        let n_popular =
            if workload == Workload::ServeOpen { POPULAR.min(order.len() / 4) } else { 0 };
        let popular = order[..n_popular].to_vec();
        let rest = order[n_popular..].to_vec();
        let cycle = workload.warm_store();
        let mut inputs = Inputs { scripts, batch: Vec::new(), bytes, popular, rest, cycle };
        inputs.batch = match workload {
            Workload::ScanCold | Workload::RescanWarm => (0..inputs.scripts.len()).collect(),
            Workload::ServeOpen => inputs.requests(inputs.scripts.len(), seed ^ 0xba7c),
        };
        inputs
    }

    /// Longest request sequence [`Inputs::requests`] can build without
    /// repeating a script outside the popular set. Unbounded for a warm
    /// store, where a repeat is a cache hit like every other request.
    pub fn max_requests(&self) -> usize {
        if self.cycle {
            usize::MAX
        } else if self.popular.is_empty() {
            self.rest.len()
        } else {
            (self.rest.len() as f64 / (1.0 - REPEAT_SHARE)) as usize
        }
    }

    /// `n` request indices (at most [`Inputs::max_requests`]): a fresh
    /// permutation of the mix (repeated for a warm store), or, with a
    /// popular set, a `REPEAT_SHARE` draw from it and the rest drawn from
    /// the mix without repetition.
    pub fn requests(&self, n: usize, seed: u64) -> Vec<usize> {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = n.min(self.max_requests());
        let shuffled = |rng: &mut StdRng| {
            let mut rest = self.rest.clone();
            rest.shuffle(rng);
            rest.into_iter()
        };
        let mut fresh = shuffled(&mut rng);
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let repeat = !self.popular.is_empty() && rng.gen_bool(REPEAT_SHARE);
            let next = if repeat { self.popular.choose(&mut rng).copied() } else { fresh.next() };
            match next {
                Some(i) => out.push(i),
                None if self.cycle => fresh = shuffled(&mut rng),
                None => break,
            }
        }
        out
    }

    /// Share of `seq` that repeats an earlier entry of `seq`.
    pub fn repeat_share(seq: &[usize]) -> f64 {
        let mut seen = HashSet::new();
        let repeats = seq.iter().filter(|i| !seen.insert(**i)).count();
        repeats as f64 / seq.len().max(1) as f64
    }
}
