//! Fixture preparation and provenance.
//!
//! Every graph a run measures is recorded with its node and edge counts
//! and the xxh64 checksum of its `.fsg` encoding (for an in-memory graph,
//! of the container it would be written as). A change to `datagen` or
//! `store` that alters the measured graph therefore shows up as a
//! different fixture, not as a speed-up.

use fairsqg_datagen::{stream_tsv_to_path, DatasetKind};
use fairsqg_graph::Graph;
use fairsqg_wire::Value;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Provenance of one measured graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fixture {
    pub name: String,
    pub seed: u64,
    pub nodes: usize,
    pub edges: usize,
    pub fsg_bytes: usize,
    pub fsg_xxh64: u64,
}

impl Fixture {
    /// Fingerprints an in-memory graph by its container encoding.
    pub fn of_graph(name: &str, seed: u64, graph: &Graph) -> Fixture {
        let mut bytes = Vec::new();
        fairsqg_store::write_graph(graph, &mut bytes).expect("writing to a Vec cannot fail");
        Fixture::of_bytes(name, seed, graph, &bytes)
    }

    /// Fingerprints a graph opened from the container at `path`.
    pub fn of_file(name: &str, seed: u64, graph: &Graph, path: &Path) -> Result<Fixture, String> {
        let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(Fixture::of_bytes(name, seed, graph, &bytes))
    }

    fn of_bytes(name: &str, seed: u64, graph: &Graph, bytes: &[u8]) -> Fixture {
        Fixture {
            name: name.to_string(),
            seed,
            nodes: graph.node_count(),
            edges: graph.edge_count(),
            fsg_bytes: bytes.len(),
            fsg_xxh64: fairsqg_store::xxhash::xxh64(bytes, 0),
        }
    }

    pub fn to_value(&self) -> Value {
        Value::object([
            ("name", Value::from(self.name.as_str())),
            ("seed", Value::from(self.seed)),
            ("nodes", Value::from(self.nodes)),
            ("edges", Value::from(self.edges)),
            ("fsg_bytes", Value::from(self.fsg_bytes)),
            ("fsg_xxh64", Value::from(format!("{:016x}", self.fsg_xxh64))),
        ])
    }
}

/// A directory under the working directory for one run's
/// fixtures, removed (with everything in it) when dropped.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn create() -> Result<WorkDir, String> {
        let dir = Path::new("perfbench")
            .join("work")
            .join(std::process::id().to_string());
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind either; fails harmlessly while
        // another run still has its own directory there.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Streams the `kind` preset at `scale` to TSV and converts it to a
/// `.fsg` container in `dir` (untimed preparation). Returns the
/// container's path and how long the `datagen` emitter took; the TSV is
/// deleted.
pub fn stream_fsg(
    kind: DatasetKind,
    scale: usize,
    seed: u64,
    dir: &Path,
) -> Result<(PathBuf, Duration), String> {
    let stem = format!("{}-{scale}-{seed}", kind.name());
    let tsv = dir.join(format!("{stem}.tsv"));
    let fsg = dir.join(format!("{stem}.fsg"));
    let t = Instant::now();
    stream_tsv_to_path(kind, scale, seed, &tsv).map_err(|e| format!("{}: {e}", tsv.display()))?;
    let emit = t.elapsed();
    fairsqg_store::convert_tsv_path(&tsv, &fsg).map_err(|e| format!("{}: {e}", fsg.display()))?;
    std::fs::remove_file(&tsv).map_err(|e| format!("{}: {e}", tsv.display()))?;
    Ok((fsg, emit))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairsqg_datagen::{social_graph, SocialConfig};

    fn lki(seed: u64) -> Graph {
        social_graph(SocialConfig {
            directors: 200,
            majority_share: 0.65,
            seed,
        })
    }

    /// The same seed gives the same fixture; another seed a different
    /// one — checked on two seeds so a seed-insensitive fingerprint
    /// cannot pass.
    #[test]
    fn fingerprints_follow_the_graph() {
        for seed in [1, 2] {
            assert_eq!(
                Fixture::of_graph("lki", seed, &lki(seed)),
                Fixture::of_graph("lki", seed, &lki(seed))
            );
        }
        let a = Fixture::of_graph("lki", 1, &lki(1));
        let b = Fixture::of_graph("lki", 2, &lki(2));
        assert_ne!(a.fsg_xxh64, b.fsg_xxh64);
    }

    #[test]
    fn streamed_container_matches_its_opened_graph() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("work")
            .join(format!("test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (path, _) = stream_fsg(DatasetKind::Lki, 300, 7, &dir).unwrap();
        let loaded = fairsqg_store::open_path(&path).unwrap();
        let from_file = Fixture::of_file("lki", 7, &loaded.graph, &path).unwrap();
        assert_eq!(from_file.fsg_bytes as u64, loaded.file_bytes);
        assert_eq!(
            (from_file.nodes, from_file.edges),
            (loaded.graph.node_count(), loaded.graph.edge_count())
        );
        let (again, _) = stream_fsg(DatasetKind::Lki, 300, 7, &dir).unwrap();
        assert_eq!(
            Fixture::of_file("lki", 7, &loaded.graph, &again).unwrap(),
            from_file
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
