//! The system under test as a user starts it: the committed model, verdict
//! stores under the checkout, and the daemon behind framed TCP.

use crate::mix::Inputs;
use jsdetect::{classify_many_cached, AnalysisConfig, TrainedDetectors, DEFAULT_THRESHOLD};
use jsdetect_cache::{AnalysisCache, CacheConfig};
use jsdetect_serve::{serve, Daemon, ServeConfig, ShutdownReport, TransportConfig};
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The model every workload classifies with (relative to the checkout).
pub const MODEL_PATH: &str = "results/model_n240_s42.json";
/// Level-2 Top-k the CLI and the daemon default to.
pub const TOP_K: usize = 4;
/// Daemon worker pool size.
pub const WORKERS: usize = 2;

/// The accept loop's stop flag. One daemon runs at a time.
static STOP: AtomicBool = AtomicBool::new(false);

pub fn load_model(root: &Path) -> Result<TrainedDetectors, String> {
    let path = root.join(MODEL_PATH);
    let json = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    TrainedDetectors::from_json(&json).map_err(|e| format!("{}: {e}", path.display()))
}

/// Scratch space for stores, owned by this process and removed on drop.
pub struct Scratch {
    dir: PathBuf,
    seq: AtomicU32,
}

impl Scratch {
    pub fn new(root: &Path) -> std::io::Result<Scratch> {
        let dir = root.join(".bench_tmp").join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch { dir, seq: AtomicU32::new(0) })
    }

    /// A fresh, empty store directory.
    pub fn fresh_dir(&self) -> PathBuf {
        self.dir.join(format!("store-{}", self.seq.fetch_add(1, Ordering::Relaxed)))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
        if let Some(parent) = self.dir.parent() {
            let _ = std::fs::remove_dir(parent); // only if no other run uses it
        }
    }
}

pub fn open_store(dir: &Path, config: &AnalysisConfig) -> std::io::Result<AnalysisCache> {
    AnalysisCache::open(CacheConfig::new(dir, &config.limits))
}

/// Everything a run shares: the loaded model, the analysis preset and, for
/// warm workloads, the store populated during set-up.
pub struct Env {
    pub scratch: Scratch,
    pub detectors: Arc<TrainedDetectors>,
    pub config: AnalysisConfig,
    pub warm_dir: Option<PathBuf>,
    pub serve_config: ServeConfig,
}

impl Env {
    /// Sets the system up `reps` times the way a user would: load the
    /// model, open the store (populating it with a full scan when `warm`),
    /// start the daemon and bind its listener. Returns the environment of
    /// the last repetition and every set-up time.
    pub fn set_up(
        root: &Path,
        inputs: &Inputs,
        warm: bool,
        serve_config: ServeConfig,
        reps: usize,
    ) -> Result<(Env, Vec<f64>), String> {
        let scratch = Scratch::new(root).map_err(|e| format!("scratch dir: {e}"))?;
        let config = AnalysisConfig::wild();
        let srcs: Vec<&str> = inputs.scripts.iter().map(|s| s.src.as_str()).collect();
        let mut times = Vec::with_capacity(reps);
        let mut last = None;
        for _ in 0..reps.max(1) {
            jsdetect_obs::set_enabled(false); // as a fresh process starts
            let t0 = Instant::now();
            let detectors = Arc::new(load_model(root)?);
            let dir = scratch.fresh_dir();
            let store = open_store(&dir, &config).map_err(|e| format!("store: {e}"))?;
            if warm {
                classify_many_cached(
                    &srcs,
                    &config,
                    Some(&store),
                    &detectors,
                    TOP_K,
                    DEFAULT_THRESHOLD,
                );
            }
            let stack = Stack::start(&detectors, Arc::new(store), serve_config.clone())
                .map_err(|e| format!("daemon: {e}"))?;
            times.push(t0.elapsed().as_secs_f64());
            stack.stop();
            if let Some((_, old)) = last.replace((detectors, dir)) {
                let _ = std::fs::remove_dir_all(old);
            }
        }
        let (detectors, dir) = last.expect("at least one set-up repetition");
        let warm_dir = if warm {
            Some(dir)
        } else {
            let _ = std::fs::remove_dir_all(&dir);
            None
        };
        let env = Env { scratch, detectors, config, warm_dir, serve_config };
        Ok((env, times))
    }

    /// The store a pass or daemon uses: a fresh handle onto the populated
    /// store (memory front cold, disk warm), or a fresh empty store that is
    /// deleted when the returned handle drops.
    pub fn store(&self) -> std::io::Result<Store> {
        let (dir, fresh) = match &self.warm_dir {
            Some(dir) => (dir.clone(), false),
            None => (self.scratch.fresh_dir(), true),
        };
        Ok(Store { cache: Arc::new(open_store(&dir, &self.config)?), dir, fresh })
    }

    /// Starts a daemon over [`Env::store`].
    pub fn daemon(&self) -> std::io::Result<Stack> {
        let store = self.store()?;
        let mut stack =
            Stack::start(&self.detectors, Arc::clone(&store.cache), self.serve_config.clone())?;
        stack.store = Some(store);
        Ok(stack)
    }
}

/// A verdict store handle; a fresh store's directory is removed on drop.
pub struct Store {
    pub cache: Arc<AnalysisCache>,
    dir: PathBuf,
    fresh: bool,
}

impl Drop for Store {
    fn drop(&mut self) {
        if self.fresh {
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }
}

/// The daemon configuration every workload serves with: two workers, wild
/// limits, no fault injection, the default breaker.
pub fn serve_config() -> ServeConfig {
    ServeConfig { workers: WORKERS, ..ServeConfig::default() }
}

/// A running daemon: the in-process `jsdetect_serve::serve` accept loop on
/// an ephemeral loopback port.
pub struct Stack {
    pub addr: SocketAddr,
    accept: JoinHandle<std::io::Result<ShutdownReport>>,
    store: Option<Store>,
}

impl Stack {
    fn start(
        detectors: &Arc<TrainedDetectors>,
        store: Arc<AnalysisCache>,
        cfg: ServeConfig,
    ) -> std::io::Result<Stack> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let daemon = Arc::new(Daemon::start(cfg, Arc::clone(detectors), Some(store)));
        STOP.store(false, Ordering::Release);
        let accept = std::thread::Builder::new()
            .name("bench-accept".into())
            .spawn(move || serve(daemon, listener, TransportConfig::default(), &STOP))?;
        Ok(Stack { addr, accept, store: None })
    }

    /// Drains and stops the daemon, then releases its store.
    pub fn stop(self) -> Option<ShutdownReport> {
        STOP.store(true, Ordering::Release);
        self.accept.join().ok().and_then(|r| r.ok())
    }
}

/// Median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Nearest-rank quantile of `xs` (0 for an empty slice).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
