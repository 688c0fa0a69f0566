//! The correctness oracle: a shadow model of the table that every answer is
//! checked against.
//!
//! The loaded table never changes — DML touches only rows the issuing client
//! inserted itself, with keys from that client's private ranges — so the
//! model splits into one shared, immutable [`BaseModel`] and one
//! [`ClientModel`] per client that no other thread reads. A query's expected
//! rid set is therefore known exactly at the moment it runs, with no
//! locking in the oracle: comparing the sorted rid sets checks soundness
//! (nothing returned that should not match) and completeness (nothing
//! missing) at once.

use std::collections::{BTreeMap, HashMap};

use aib_storage::{Rid, Tuple, Value};

/// A payload of `len` bytes. The content is irrelevant to the engine; one
/// repeated letter keeps generator cost out of the measured loop.
pub fn make_tuple(vals: [i64; 3], payload: u16) -> Tuple {
    Tuple::new(vec![
        Value::Int(vals[0]),
        Value::Int(vals[1]),
        Value::Int(vals[2]),
        Value::Str("x".repeat(payload as usize)),
    ])
}

/// The loaded table: immutable for the whole run.
pub struct BaseModel {
    pub tuples: Vec<Tuple>,
    pub rids: Vec<Rid>,
    columns: [BTreeMap<i64, Vec<Rid>>; 3],
    /// Encoded bytes of all loaded tuples.
    pub user_bytes: u64,
}

impl BaseModel {
    /// `rids[i]` is where the engine put `tuples[i]`.
    pub fn new(tuples: Vec<Tuple>, rids: Vec<Rid>) -> BaseModel {
        assert_eq!(tuples.len(), rids.len(), "one rid per loaded tuple");
        let mut columns: [BTreeMap<i64, Vec<Rid>>; 3] = Default::default();
        let mut user_bytes = 0;
        for (tuple, &rid) in tuples.iter().zip(&rids) {
            user_bytes += tuple.encoded_len() as u64;
            for (col, map) in columns.iter_mut().enumerate() {
                if let Some(v) = tuple.get(col).and_then(Value::as_int) {
                    map.entry(v).or_default().push(rid);
                }
            }
        }
        for map in &mut columns {
            for rids in map.values_mut() {
                rids.sort_unstable();
            }
        }
        BaseModel {
            tuples,
            rids,
            columns,
            user_bytes,
        }
    }

    /// Sorted rids of the loaded rows with `lo <= column <= hi`.
    pub fn range(&self, col: usize, lo: i64, hi: i64) -> Vec<Rid> {
        let mut out: Vec<Rid> = self.columns[col]
            .range(lo..=hi)
            .flat_map(|(_, rids)| rids.iter().copied())
            .collect();
        out.sort_unstable();
        out
    }
}

pub struct OwnedRow {
    pub rid: Rid,
    pub vals: [i64; 3],
    pub tuple: Tuple,
}

/// The rows one client inserted and still owns.
#[derive(Default)]
pub struct ClientModel {
    pub rows: Vec<OwnedRow>,
    by_key: [HashMap<i64, Vec<Rid>>; 3],
}

impl ClientModel {
    pub fn insert(&mut self, rid: Rid, vals: [i64; 3], tuple: Tuple) {
        for (col, map) in self.by_key.iter_mut().enumerate() {
            map.entry(vals[col]).or_default().push(rid);
        }
        self.rows.push(OwnedRow { rid, vals, tuple });
    }

    /// Forgets row `idx` (the last row takes its place).
    pub fn remove(&mut self, idx: usize) -> OwnedRow {
        let row = self.rows.swap_remove(idx);
        for (col, map) in self.by_key.iter_mut().enumerate() {
            if let Some(rids) = map.get_mut(&row.vals[col]) {
                rids.retain(|&r| r != row.rid);
                if rids.is_empty() {
                    map.remove(&row.vals[col]);
                }
            }
        }
        row
    }

    /// Sorted rids of this client's rows with `column = value`.
    pub fn point(&self, col: usize, value: i64) -> Vec<Rid> {
        let mut out = self.by_key[col].get(&value).cloned().unwrap_or_default();
        out.sort_unstable();
        out
    }
}

/// Whether the engine's answer is exactly the expected rid set.
pub fn same_rids(got: &[Rid], expected_sorted: &[Rid]) -> bool {
    if got.len() != expected_sorted.len() {
        return false;
    }
    let mut got = got.to_vec();
    got.sort_unstable();
    got == expected_sorted
}

/// Full-table diff of a reopened database against the model: rows the model
/// has that the table lacks or holds differently (lost acked writes), plus
/// rows the table has that the model does not (resurrected deletes).
pub fn table_diff(actual: &[(Rid, Tuple)], base: &BaseModel, clients: &[ClientModel]) -> u64 {
    let mut expected: HashMap<Rid, &Tuple> = base.rids.iter().copied().zip(&base.tuples).collect();
    for client in clients {
        for row in &client.rows {
            expected.insert(row.rid, &row.tuple);
        }
    }
    let mut wrong = 0u64;
    for (rid, tuple) in actual {
        match expected.remove(rid) {
            Some(want) if want == tuple => {}
            _ => wrong += 1,
        }
    }
    wrong + expected.len() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rid(page: u32, slot: u16) -> Rid {
        Rid::new(page, slot)
    }

    #[test]
    fn base_model_answers_points_and_ranges() {
        let tuples = vec![
            make_tuple([5, 1, 9], 3),
            make_tuple([7, 1, 9], 3),
            make_tuple([5, 2, 8], 3),
        ];
        let rids = vec![rid(0, 0), rid(0, 1), rid(1, 0)];
        let base = BaseModel::new(tuples, rids);
        assert_eq!(base.range(0, 5, 5), vec![rid(0, 0), rid(1, 0)]);
        assert_eq!(base.range(0, 5, 7).len(), 3);
        assert_eq!(base.range(1, 2, 2), vec![rid(1, 0)]);
        assert!(base.range(2, 1, 7).is_empty());
        assert!(base.user_bytes > 0);
    }

    #[test]
    fn client_model_tracks_inserts_and_removals() {
        let mut m = ClientModel::default();
        m.insert(rid(3, 0), [10, 20, 30], make_tuple([10, 20, 30], 1));
        m.insert(rid(3, 1), [10, 21, 31], make_tuple([10, 21, 31], 1));
        assert_eq!(m.point(0, 10), vec![rid(3, 0), rid(3, 1)]);
        let gone = m.remove(0);
        assert_eq!(gone.rid, rid(3, 0));
        assert_eq!(m.point(0, 10), vec![rid(3, 1)]);
        assert!(m.point(1, 20).is_empty());
        assert_eq!(m.rows.len(), 1);
    }

    #[test]
    fn same_rids_ignores_order_but_not_content() {
        let want = vec![rid(1, 0), rid(2, 0)];
        assert!(same_rids(&[rid(2, 0), rid(1, 0)], &want));
        assert!(!same_rids(&[rid(1, 0)], &want));
        assert!(!same_rids(&[rid(1, 0), rid(1, 0)], &want));
        assert!(!same_rids(&[rid(1, 0), rid(3, 0)], &want));
    }

    #[test]
    fn diff_counts_lost_changed_and_resurrected_rows() {
        let base = BaseModel::new(
            vec![make_tuple([1, 1, 1], 2), make_tuple([2, 2, 2], 2)],
            vec![rid(0, 0), rid(0, 1)],
        );
        let mut client = ClientModel::default();
        client.insert(rid(1, 0), [9, 9, 9], make_tuple([9, 9, 9], 2));
        let clients = [client];
        let good = vec![
            (rid(0, 0), make_tuple([1, 1, 1], 2)),
            (rid(0, 1), make_tuple([2, 2, 2], 2)),
            (rid(1, 0), make_tuple([9, 9, 9], 2)),
        ];
        assert_eq!(table_diff(&good, &base, &clients), 0);
        // An acked insert is missing.
        assert_eq!(table_diff(&good[..2], &base, &clients), 1);
        // A row came back with other contents.
        let mut changed = good.clone();
        changed[2].1 = make_tuple([9, 9, 8], 2);
        assert_eq!(table_diff(&changed, &base, &clients), 1);
        // A deleted row is back.
        let mut extra = good.clone();
        extra.push((rid(1, 1), make_tuple([4, 4, 4], 2)));
        assert_eq!(table_diff(&extra, &base, &clients), 1);
    }
}
