//! Run manifests: enough provenance to compare bench exports across
//! machines and re-runs (config hash, seed, thread count, host core count,
//! git revision and whether the tree had uncommitted changes).

use std::path::Path;

/// Schema version stamped into every manifest; bump on breaking changes to
/// the exported snapshot/event schemas.
pub const MANIFEST_SCHEMA_VERSION: u32 = 1;

/// Provenance record written alongside every telemetry export and embedded
/// in `BENCH_*.json`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunManifest {
    /// Export schema version ([`MANIFEST_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Experiment or binary name (e.g. `"bench_faults"`).
    pub experiment: String,
    /// FNV-1a hash of the canonical configuration string.
    pub config_hash: u64,
    /// Base seed the run derived all streams from.
    pub seed: u64,
    /// Worker threads the run used.
    pub threads: usize,
    /// Cores `std::thread::available_parallelism` detected on the host.
    pub detected_cores: usize,
    /// Git revision of the working tree, or `"unknown"`.
    pub git_rev: String,
    /// Whether the tracked files differed from `git_rev` (see
    /// [`git_dirty`]).
    pub dirty: bool,
}

impl RunManifest {
    /// Builds a manifest for `experiment`, hashing `config` canonically and
    /// detecting host cores and the git revision and state of the current
    /// directory tree.
    pub fn new(experiment: &str, config: &str, seed: u64, threads: usize) -> Self {
        Self {
            schema_version: MANIFEST_SCHEMA_VERSION,
            experiment: experiment.to_string(),
            config_hash: fnv1a(config.as_bytes()),
            seed,
            threads,
            detected_cores: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            git_rev: git_revision(Path::new(".")).unwrap_or_else(|| "unknown".to_string()),
            dirty: git_dirty(Path::new(".")),
        }
    }

    /// Renders the manifest as a standalone JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"schema_version\": {},\n  \"experiment\": \"{}\",\n  \
             \"config_hash\": {},\n  \"seed\": {},\n  \"threads\": {},\n  \
             \"detected_cores\": {},\n  \"git_rev\": \"{}\",\n  \"dirty\": {}\n}}\n",
            self.schema_version,
            json_escape(&self.experiment),
            self.config_hash,
            self.seed,
            self.threads,
            self.detected_cores,
            json_escape(&self.git_rev),
            self.dirty,
        )
    }
}

/// FNV-1a over a byte string; stable across platforms and runs, good enough
/// to detect configuration divergence between exports.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Resolves the current git revision by reading `.git/HEAD` (and the ref
/// file it points to) from `dir` or any ancestor — no subprocess, works in
/// sandboxes without a `git` binary on PATH. Returns `None` outside a git
/// checkout.
pub fn git_revision(dir: &Path) -> Option<String> {
    let mut cur = dir.canonicalize().ok()?;
    loop {
        let git = cur.join(".git");
        if git.is_dir() {
            return read_head(&git);
        }
        if !cur.pop() {
            return None;
        }
    }
}

/// Whether the working tree at `dir` has uncommitted changes to tracked
/// files. `false` only when `git status --porcelain --untracked-files=no`
/// runs and prints nothing, so a tree whose state cannot be checked (no
/// `git` binary, no checkout) counts as dirty.
pub fn git_dirty(dir: &Path) -> bool {
    !std::process::Command::new("git")
        .args(["status", "--porcelain", "--untracked-files=no"])
        .current_dir(dir)
        .output()
        .is_ok_and(|out| out.status.success() && out.stdout.is_empty())
}

fn read_head(git_dir: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git_dir.join("HEAD")).ok()?;
    let head = head.trim();
    if let Some(reference) = head.strip_prefix("ref: ") {
        let direct = git_dir.join(reference);
        if let Ok(rev) = std::fs::read_to_string(direct) {
            return Some(rev.trim().to_string());
        }
        // Packed refs fall-back: "<hash> <refname>" lines.
        let packed = std::fs::read_to_string(git_dir.join("packed-refs")).ok()?;
        for line in packed.lines() {
            if let Some((hash, name)) = line.split_once(' ') {
                if name == reference {
                    return Some(hash.trim().to_string());
                }
            }
        }
        None
    } else {
        Some(head.to_string())
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_is_stable_and_discriminating() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"adam2"), fnv1a(b"adam2"));
        assert_ne!(fnv1a(b"lambda=50"), fnv1a(b"lambda=51"));
    }

    #[test]
    fn manifest_json_contains_all_fields() {
        let m = RunManifest {
            schema_version: MANIFEST_SCHEMA_VERSION,
            experiment: "bench_engine".to_string(),
            config_hash: 42,
            seed: 7,
            threads: 4,
            detected_cores: 8,
            git_rev: "deadbeef".to_string(),
            dirty: true,
        };
        let json = m.to_json();
        for needle in [
            "\"schema_version\": 1",
            "\"experiment\": \"bench_engine\"",
            "\"config_hash\": 42",
            "\"seed\": 7",
            "\"threads\": 4",
            "\"detected_cores\": 8",
            "\"git_rev\": \"deadbeef\"",
            "\"dirty\": true",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }

    #[test]
    fn git_revision_resolves_in_this_repo() {
        // The workspace is a git checkout; the revision must be a hex hash.
        let rev = git_revision(Path::new(env!("CARGO_MANIFEST_DIR")));
        let rev = rev.expect("workspace is a git repo");
        assert!(rev.len() >= 7, "unexpectedly short rev {rev}");
        assert!(rev.chars().all(|c| c.is_ascii_hexdigit()));
    }

    #[test]
    fn a_tree_that_cannot_be_checked_is_dirty() {
        assert!(git_dirty(Path::new("/nonexistent/adam2-manifest-test")));
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
