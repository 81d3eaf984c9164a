//! Measurement primitives shared by every workload: process counters read
//! from `/proc`, order statistics, the result fingerprint and the span
//! recorder of the traced run.

use std::fmt::Write as _;
use std::time::Instant;

/// Kernel clock ticks per second for the `utime`/`stime` fields of
/// `/proc/self/stat` (`USER_HZ`, fixed at 100 on Linux).
const CLK_TCK: f64 = 100.0;

/// User and system CPU seconds of the whole process (all threads) so far.
pub fn cpu_times() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let mut tick = || {
        fields
            .next()
            .and_then(|f| f.parse::<f64>().ok())
            .expect("cpu field")
    };
    let utime = tick();
    let stime = tick();
    (utime / CLK_TCK, stime / CLK_TCK)
}

/// User + system CPU seconds of the process so far.
pub fn cpu_s() -> f64 {
    let (user, sys) = cpu_times();
    user + sys
}

fn status_kb(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").expect("VmHWM in /proc/self/status") / 1024.0
}

/// Voluntary context switches summed over every live thread of the
/// process (`/proc/self/status` alone covers only the main thread).
pub fn voluntary_ctx_switches() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    let key = "voluntary_ctxt_switches:";
    tasks
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("status")).ok())
        .filter_map(|s| {
            let line = s.lines().find(|l| l.starts_with(key))?;
            line[key.len()..].trim().parse::<u64>().ok()
        })
        .sum()
}

/// Soft limit on open files (`ulimit -n`).
pub fn fd_soft_limit() -> Option<u64> {
    let limits = std::fs::read_to_string("/proc/self/limits").ok()?;
    let line = limits.lines().find(|l| l.starts_with("Max open files"))?;
    line.split_whitespace().nth(3)?.parse().ok()
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Worker threads every parallel path runs with: `min(nproc, 4)`.
pub fn bench_threads() -> usize {
    nproc().min(4)
}

/// Median of `values` (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The `q`-quantile by nearest rank (0 when there are no samples).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((v.len() as f64 * q).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// FNV-1a over the little-endian bytes of `v`, folded into `h`.
pub fn mix(mut h: u64, v: u64) -> u64 {
    for b in v.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// FNV-1a offset basis, the seed of every fingerprint.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// A stopwatch over wall and CPU time that can be paused, so checks that
/// run between rounds stay out of the measured section.
pub struct Stopwatch {
    wall: f64,
    cpu: f64,
    running: Option<(Instant, f64)>,
}

impl Stopwatch {
    pub fn started() -> Self {
        Self {
            wall: 0.0,
            cpu: 0.0,
            running: Some((Instant::now(), cpu_s())),
        }
    }

    pub fn pause(&mut self) {
        if let Some((t0, c0)) = self.running.take() {
            self.wall += t0.elapsed().as_secs_f64();
            self.cpu += cpu_s() - c0;
        }
    }

    pub fn resume(&mut self) {
        if self.running.is_none() {
            self.running = Some((Instant::now(), cpu_s()));
        }
    }

    /// Stops the watch and returns `(wall_s, cpu_s)`.
    pub fn stop(mut self) -> (f64, f64) {
        self.pause();
        (self.wall, self.cpu)
    }
}

/// Sets up `times` times and keeps the last result; `setup_s` is the
/// median of the samples pushed here. Each earlier result goes through
/// `tear_down` before the next set-up starts, so two never coexist, and
/// only the last set-up — the one the run measures on — is traced.
pub fn set_up_repeatedly<T>(
    times: usize,
    tracer: &mut Tracer,
    samples: &mut Vec<f64>,
    mut set_up: impl FnMut(&mut Tracer) -> T,
    mut tear_down: impl FnMut(T),
) -> T {
    let mut quiet = Tracer::new(false, Instant::now());
    for _ in 1..times {
        let t0 = Instant::now();
        let built = set_up(&mut quiet);
        samples.push(t0.elapsed().as_secs_f64());
        tear_down(built);
    }
    let t0 = Instant::now();
    let built = set_up(tracer);
    samples.push(t0.elapsed().as_secs_f64());
    built
}

/// One recorded span of the traced run.
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span recorder. Spans are opened and closed from the
/// benchmark's own code around calls into the crates; a disabled tracer
/// records nothing, so the untraced run pays one branch per call site.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span (`None` on a disabled tracer).
pub type SpanId = Option<usize>;

impl Tracer {
    /// `epoch` is the process start, so span times are process-relative.
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Self {
            enabled,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            start_ns: now,
            end_ns: now,
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes `span`, which must be the innermost open one.
    pub fn end(&mut self, span: SpanId) {
        let Some(id) = span else { return };
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.begin(name);
        let out = f(self);
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations, in seconds, of every closed span named `name`.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .collect()
    }

    /// Summed duration, in seconds, of every span named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations_s(name).iter().sum()
    }

    /// The spans as JSON lines: `{id, parent, workload, name, start_ns,
    /// end_ns}`, one object per line in opening order.
    pub fn to_jsonl(&self, workload: &str) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {parent}, \"workload\": \"{workload}\", \
                 \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.name, s.start_ns, s.end_ns
            )
            .expect("write to string");
        }
        out
    }
}
