//! Correctness gates: a measured output is accepted only when it is
//! bit-identical to an independently computed reference.

use fairsqg_algo::{ArchiveEntry, Generated};
use fairsqg_wire::Value;

/// Two archives are identical: same entries in the same order, same
/// instantiations, bit-equal objectives, same truncation flag.
pub fn same_archive(got: &Generated, want: &Generated, what: &str) -> Result<(), String> {
    same_entries(&got.entries, &want.entries, what)?;
    if got.truncated != want.truncated {
        return Err(format!(
            "{what}: truncated {} vs {}",
            got.truncated, want.truncated
        ));
    }
    Ok(())
}

/// [`same_archive`] over bare entry lists.
pub fn same_entries(got: &[ArchiveEntry], want: &[ArchiveEntry], what: &str) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "{what}: {} archive entries, reference has {}",
            got.len(),
            want.len()
        ));
    }
    for (i, (a, b)) in got.iter().zip(want).enumerate() {
        let (oa, ob) = (a.objectives(), b.objectives());
        if a.inst != b.inst
            || oa.delta.to_bits() != ob.delta.to_bits()
            || oa.fcov.to_bits() != ob.fcov.to_bits()
        {
            return Err(format!(
                "{what}: entry {i} differs: ({}, {}) vs reference ({}, {})",
                oa.delta, oa.fcov, ob.delta, ob.fcov
            ));
        }
    }
    Ok(())
}

/// A rendered result (the wire form) carries the same archive as the
/// reference rendering: identical `entries` and `truncated`. Run
/// statistics (timings, cache counters) legitimately differ and are not
/// compared.
pub fn same_rendered(got: &Value, want: &Value, what: &str) -> Result<(), String> {
    for key in ["entries", "truncated", "eps"] {
        let (a, b) = (got.get(key), want.get(key));
        if a.is_none() || a != b {
            return Err(format!(
                "{what}: result field '{key}' differs from the library reference"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairsqg_algo::{enum_qgen, Configuration, EvalResult};
    use fairsqg_datagen::{workload, DatasetKind, WorkloadParams};
    use fairsqg_measures::{DiversityConfig, Objectives};
    use std::rc::Rc;

    fn small_run() -> Generated {
        let w = workload(DatasetKind::Lki, 300, &WorkloadParams::default());
        let cfg = Configuration::new(
            &w.graph,
            &w.template,
            &w.domains,
            &w.groups,
            &w.spec,
            0.05,
            DiversityConfig::default(),
        );
        let out = enum_qgen(cfg, false);
        assert!(
            out.entries.len() >= 2,
            "fixture needs a non-trivial archive"
        );
        out
    }

    fn with_objectives(e: &ArchiveEntry, delta: f64, fcov: f64) -> ArchiveEntry {
        let mut result = EvalResult::clone(&e.result);
        result.objectives = Objectives::new(delta, fcov);
        ArchiveEntry {
            result: Rc::new(result),
            ..e.clone()
        }
    }

    #[test]
    fn identical_archives_pass() {
        let a = small_run();
        let b = small_run();
        same_archive(&a, &b, "rerun").unwrap();
    }

    #[test]
    fn perturbed_archives_are_rejected() {
        let want = small_run();
        let o = want.entries[0].objectives();

        let mut one_ulp = want.clone();
        one_ulp.entries[0] = with_objectives(
            &want.entries[0],
            f64::from_bits(o.delta.to_bits() + 1),
            o.fcov,
        );
        assert!(same_archive(&one_ulp, &want, "ulp").is_err());

        let mut fcov = want.clone();
        fcov.entries[0] = with_objectives(&want.entries[0], o.delta, o.fcov + 1.0);
        assert!(same_archive(&fcov, &want, "fcov").is_err());

        let mut dropped = want.clone();
        dropped.entries.pop();
        assert!(same_archive(&dropped, &want, "dropped").is_err());

        let mut swapped = want.clone();
        swapped.entries.swap(0, 1);
        assert!(same_archive(&swapped, &want, "order").is_err());

        let mut truncated = want.clone();
        truncated.truncated = true;
        assert!(same_archive(&truncated, &want, "truncated").is_err());
    }

    #[test]
    fn rendered_results_compare_archive_fields_only() {
        let entry = |delta: f64| Value::object([("delta", Value::from(delta))]);
        let result = |delta: f64, verified: i64| {
            Value::object([
                ("eps", Value::from(0.01)),
                ("truncated", Value::from(false)),
                ("entries", Value::Array(vec![entry(delta)])),
                (
                    "stats",
                    Value::object([("verified", Value::from(verified))]),
                ),
            ])
        };
        same_rendered(&result(1.5, 3), &result(1.5, 9), "stats differ").unwrap();
        assert!(same_rendered(&result(1.5000001, 3), &result(1.5, 3), "delta").is_err());
        assert!(same_rendered(&Value::Null, &result(1.5, 3), "missing").is_err());
    }
}
