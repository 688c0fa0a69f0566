//! Data generation reproducing the paper's evaluation table (§V):
//!
//! > "a single table with three INTEGER columns (A,B,C) for indexing and one
//! > VARCHAR(512) column as payload. The integer columns are populated with
//! > random values uniformly distributed from 1 to 50,000. The size of the
//! > payload values is also uniformly distributed, but ranges from 1 to 512.
//! > We filled the table with 500,000 tuples."

use aib_storage::{Column, Rng, Schema, Tuple, Value};

/// Parameters of the generated table.
#[derive(Debug, Clone)]
pub struct TableSpec {
    /// Number of tuples (paper: 500,000).
    pub rows: u64,
    /// Key domain `1..=domain` (paper: 50,000).
    pub domain: i64,
    /// Payload length range (paper: 1..=512).
    pub payload: (usize, usize),
    /// RNG seed.
    pub seed: u64,
}

impl TableSpec {
    /// The paper's exact setup.
    pub fn paper() -> Self {
        TableSpec {
            rows: 500_000,
            domain: 50_000,
            payload: (1, 512),
            seed: 0xDA7A,
        }
    }

    /// A proportionally scaled-down setup (for tests and quick runs): `rows`
    /// tuples with the key domain scaled to keep ~10 duplicates per value.
    pub fn scaled(rows: u64, seed: u64) -> Self {
        TableSpec {
            rows,
            domain: (rows as i64 / 10).max(10),
            payload: (1, 512),
            seed,
        }
    }

    /// The schema: `A, B, C INTEGER; payload VARCHAR`.
    pub fn schema(&self) -> Schema {
        Schema::new(vec![
            Column::int("A"),
            Column::int("B"),
            Column::int("C"),
            Column::str("payload"),
        ])
    }

    /// The covered range of the paper's partial indexes: "the top 10 % of
    /// the value range ..., i.e., values from 1 to 5,000".
    pub fn covered_range(&self) -> (i64, i64) {
        (1, self.domain / 10)
    }

    /// Generates the tuples as an iterator (stable under `seed`).
    pub fn tuples(&self) -> impl Iterator<Item = Tuple> + '_ {
        let mut rng = Rng::new(self.seed);
        (0..self.rows).map(move |_| {
            let a = rng.int(1, self.domain);
            let b = rng.int(1, self.domain);
            let c = rng.int(1, self.domain);
            let len = rng.int(self.payload.0 as i64, self.payload.1 as i64);
            let payload: String = (0..len)
                .map(|_| (b'a' + rng.below(26) as u8) as char)
                .collect();
            Tuple::new(vec![
                Value::Int(a),
                Value::Int(b),
                Value::Int(c),
                Value::Str(payload),
            ])
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_spec_parameters() {
        let s = TableSpec::paper();
        assert_eq!(s.rows, 500_000);
        assert_eq!(s.domain, 50_000);
        assert_eq!(s.covered_range(), (1, 5_000), "top 10% = values 1..5000");
        assert_eq!(s.schema().arity(), 4);
    }

    #[test]
    fn generation_is_deterministic() {
        let s = TableSpec::scaled(100, 9);
        let a: Vec<Tuple> = s.tuples().collect();
        let b: Vec<Tuple> = s.tuples().collect();
        assert_eq!(a, b);
        assert_eq!(a.len(), 100);
    }

    #[test]
    fn values_respect_bounds() {
        let s = TableSpec::scaled(500, 3);
        for t in s.tuples() {
            for col in 0..3 {
                let v = t.get(col).unwrap().as_int().unwrap();
                assert!((1..=s.domain).contains(&v));
            }
            let p = t.get(3).unwrap().as_str().unwrap();
            assert!((s.payload.0..=s.payload.1).contains(&p.len()));
        }
    }

    #[test]
    fn payload_lengths_spread_over_range() {
        let s = TableSpec::scaled(2000, 5);
        let lens: Vec<usize> = s
            .tuples()
            .map(|t| t.get(3).unwrap().as_str().unwrap().len())
            .collect();
        let min = *lens.iter().min().unwrap();
        let max = *lens.iter().max().unwrap();
        assert!(min < 30, "short payloads occur (min {min})");
        assert!(max > 480, "long payloads occur (max {max})");
    }
}
