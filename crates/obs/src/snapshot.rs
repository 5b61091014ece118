//! Counter snapshots with hierarchical dotted names.
//!
//! Hot paths keep their counters as plain struct fields (a string-keyed
//! map per event would dominate the simulator's per-instruction cost);
//! at run end those fields are folded into a [`Snapshot`] under stable
//! dotted names (`sim.il1.miss`, `sim.drc.walk_cycles`, …).

use crate::json::Json;

/// A point-in-time view of a run's counters, sorted by name,
/// serialisable to deterministic JSON.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// `(name, value)` pairs, sorted by name.
    pub counters: Vec<(String, u64)>,
}

impl Snapshot {
    /// Builds a snapshot from `(name, value)` pairs (the bridge hot-path
    /// stats use); pairs are sorted by name.
    pub fn from_counters(pairs: impl IntoIterator<Item = (String, u64)>) -> Snapshot {
        let mut counters: Vec<(String, u64)> = pairs.into_iter().collect();
        counters.sort_by(|a, b| a.0.cmp(&b.0));
        counters.dedup_by(|a, b| a.0 == b.0);
        Snapshot { counters }
    }

    /// The value of one counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .binary_search_by(|(k, _)| k.as_str().cmp(name))
            .map(|i| self.counters[i].1)
            .unwrap_or(0)
    }

    /// Serialises as a *nested* JSON object: dotted names become object
    /// paths (`sim.il1.miss` → `{"sim": {"il1": {"miss": N}}}`), keys
    /// sorted at every level.
    pub fn to_json(&self) -> Json {
        let mut root = Json::obj();
        for (name, v) in &self.counters {
            insert_path(&mut root, name, Json::U64(*v));
        }
        root
    }
}

/// Inserts `value` at the dotted `path`, creating intermediate objects.
/// Because callers iterate name-sorted pairs, sibling keys come out
/// sorted, keeping the emission deterministic.
fn insert_path(root: &mut Json, path: &str, value: Json) {
    let mut cur = root;
    let mut parts = path.split('.').peekable();
    while let Some(part) = parts.next() {
        if parts.peek().is_none() {
            cur.set(part, value);
            return;
        }
        if cur.get(part).map(|v| !matches!(v, Json::Obj(_))).unwrap_or(true) {
            cur.set(part, Json::obj());
        }
        let Json::Obj(pairs) = cur else { unreachable!("set keeps objects") };
        cur = &mut pairs.iter_mut().find(|(k, _)| k == part).expect("just set").1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_sorted_and_nested() {
        let s = Snapshot::from_counters(vec![
            ("sim.il1.miss".into(), 7),
            ("sim.il1.access".into(), 100),
            ("sim.cycles".into(), 50),
        ]);
        assert_eq!(s.counter("sim.il1.miss"), 7);
        let j = s.to_json();
        assert_eq!(j.get_path("sim.il1.miss").unwrap().as_u64(), Some(7));
        assert_eq!(j.get_path("sim.cycles").unwrap().as_u64(), Some(50));
        // Deterministic: emitting twice gives identical bytes.
        assert_eq!(j.pretty(), s.to_json().pretty());
    }

    #[test]
    fn from_counters_sorts_and_dedups() {
        let s = Snapshot::from_counters(vec![("b".into(), 2), ("a".into(), 1), ("b".into(), 9)]);
        assert_eq!(s.counter("a"), 1);
        assert_eq!(s.counter("b"), 2);
        assert_eq!(s.counters.len(), 2);
    }

    #[test]
    fn conflicting_leaf_and_branch_names_resolve_to_branch() {
        // "a" then "a.b": the later branch wins over the leaf.
        let s = Snapshot::from_counters(vec![("a".into(), 1), ("a.b".into(), 2)]);
        let j = s.to_json();
        assert_eq!(j.get_path("a.b").unwrap().as_u64(), Some(2));
    }
}
