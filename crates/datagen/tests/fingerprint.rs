//! Byte-level fingerprints of every generator's output: the in-memory
//! builders of all three presets and their streaming TSV emitters, each
//! at three scales. The expected values were recorded with the original
//! `O(n)`-per-draw `zipf` sampler, so a sampler change that moves a
//! single draw (and with it a node, an edge or an attribute) fails here.

use fairsqg_datagen::{
    citations_graph, movies_graph, social_graph, stream_tsv, CitationsConfig, DatasetKind,
    MoviesConfig, SocialConfig,
};
use fairsqg_graph::{write_tsv, Graph};

/// FNV-1a over the bytes.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn graph_fingerprint(g: &Graph) -> u64 {
    let mut tsv = Vec::new();
    write_tsv(g, &mut tsv).unwrap();
    fnv(&tsv)
}

fn observed() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for scale in SCALES {
        let movies = movies_graph(MoviesConfig {
            movies: scale,
            seed: 0xDB,
        });
        let social = social_graph(SocialConfig {
            directors: scale,
            majority_share: 0.65,
            seed: 7,
        });
        let cite = citations_graph(CitationsConfig {
            papers: scale,
            seed: 0xC17E,
        });
        out.push((format!("movies/{scale}"), graph_fingerprint(&movies)));
        out.push((format!("social/{scale}"), graph_fingerprint(&social)));
        out.push((format!("citations/{scale}"), graph_fingerprint(&cite)));
        for kind in [DatasetKind::Dbp, DatasetKind::Lki, DatasetKind::Cite] {
            let mut tsv = Vec::new();
            stream_tsv(kind, scale, 11, &mut tsv).unwrap();
            out.push((format!("stream-{}/{scale}", kind.name()), fnv(&tsv)));
        }
    }
    out
}

const SCALES: [usize; 3] = [150, 900, 3000];

#[test]
fn generators_are_byte_identical_to_the_recorded_output() {
    let observed = observed();
    let observed: Vec<(&str, u64)> = observed.iter().map(|(w, f)| (w.as_str(), *f)).collect();
    assert_eq!(observed, EXPECTED, "generator output changed");
}

const EXPECTED: &[(&str, u64)] = &[
    ("movies/150", 0x1519cce9078aae38),
    ("social/150", 0x195ab3c5a574600d),
    ("citations/150", 0xc9ce3081f84a8f47),
    ("stream-DBP/150", 0xd6150ca49d473bd6),
    ("stream-LKI/150", 0x08d367c9e1e2063c),
    ("stream-Cite/150", 0x221865c92ac71a48),
    ("movies/900", 0xcea28e357a07b2df),
    ("social/900", 0x3e09c332e57605f4),
    ("citations/900", 0xf6f902d403d0fe18),
    ("stream-DBP/900", 0x15700b3211e4b623),
    ("stream-LKI/900", 0x7f245e24cb0b48e3),
    ("stream-Cite/900", 0xba68626302e08d74),
    ("movies/3000", 0xb7516b973045f66e),
    ("social/3000", 0xdff9c9e6c10c14fa),
    ("citations/3000", 0xb191f73d74b140b4),
    ("stream-DBP/3000", 0xc05577a650ee91a2),
    ("stream-LKI/3000", 0x0952011d697084ed),
    ("stream-Cite/3000", 0xdc0882e1ea499af4),
];
