//! Coverage predicates: which column *values* a partial index covers.
//!
//! Paper §II: "Partial indexes cover only a subset of the values of a
//! column." Two shapes matter for the reproduction:
//!
//! * [`Coverage::IntRange`] — the evaluation setup ("the top 10 % of the
//!   value range are indexed, i.e., values from 1 to 5,000").
//! * [`Coverage::Set`] — the Fig. 1 online tuner, which indexes individual
//!   values once they cross the monitoring threshold and evicts them LRU.

use std::collections::BTreeSet;

use aib_storage::{ColumnView, Value};

/// A predicate over column values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Coverage {
    /// Covers nothing (an empty partial index definition).
    None,
    /// Covers everything (a conventional full index).
    All,
    /// Covers integers in `lo..=hi`.
    IntRange {
        /// Inclusive lower bound.
        lo: i64,
        /// Inclusive upper bound.
        hi: i64,
    },
    /// Covers an explicit set of values (the adaptive tuner's shape).
    Set(BTreeSet<Value>),
}

impl Coverage {
    /// An empty mutable set coverage.
    pub fn empty_set() -> Self {
        Coverage::Set(BTreeSet::new())
    }

    /// Whether `value` is covered.
    pub fn covers(&self, value: &Value) -> bool {
        match self {
            Coverage::None => false,
            Coverage::All => true,
            Coverage::IntRange { lo, hi } => value.as_int().is_some_and(|v| *lo <= v && v <= *hi),
            Coverage::Set(set) => set.contains(value),
        }
    }

    /// Adds `value` to a [`Coverage::Set`]. Returns `true` if coverage grew.
    ///
    /// # Panics
    /// On non-`Set` coverage — range coverage is redefined wholesale via
    /// [`Coverage::IntRange`], not value by value.
    pub fn add_value(&mut self, value: Value) -> bool {
        match self {
            Coverage::Set(set) => set.insert(value),
            // aib-lint: allow(no-panic) — documented API contract (# Panics):
            other => panic!("add_value on non-set coverage {other:?}"),
        }
    }

    /// Removes `value` from a [`Coverage::Set`]. Returns `true` if coverage
    /// shrank.
    ///
    /// # Panics
    /// On non-`Set` coverage.
    pub fn remove_value(&mut self, value: &Value) -> bool {
        match self {
            Coverage::Set(set) => set.remove(value),
            // aib-lint: allow(no-panic) — documented API contract (# Panics):
            other => panic!("remove_value on non-set coverage {other:?}"),
        }
    }

    /// Compiles the coverage for a sweep that tests it once per tuple.
    pub fn compile(&self) -> CompiledCoverage {
        match self {
            Coverage::None => CompiledCoverage::None,
            Coverage::All => CompiledCoverage::All,
            Coverage::IntRange { lo, hi } => CompiledCoverage::IntRange { lo: *lo, hi: *hi },
            Coverage::Set(set) => {
                // The set iterates in value order (NULL, integers, strings),
                // so both lists come out sorted.
                let (mut null, mut ints, mut strs) = (false, Vec::new(), Vec::new());
                for value in set {
                    match value {
                        Value::Null => null = true,
                        Value::Int(v) => ints.push(*v),
                        Value::Str(s) => strs.push(s.clone()),
                    }
                }
                CompiledCoverage::Set {
                    null,
                    ints: ints.into(),
                    strs: strs.into(),
                }
            }
        }
    }
}

/// A [`Coverage`] compiled for testing borrowed column values: the two
/// constant shapes stay constants, a range is two compares, and a set is
/// binary-searched sorted lists per value kind. Agrees with
/// [`Coverage::covers`] on every value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompiledCoverage {
    /// Covers nothing.
    None,
    /// Covers everything.
    All,
    /// Covers integers in `lo..=hi`.
    IntRange {
        /// Inclusive lower bound.
        lo: i64,
        /// Inclusive upper bound.
        hi: i64,
    },
    /// Covers an explicit set of values.
    Set {
        /// Whether NULL is a member.
        null: bool,
        /// The integer members, ascending.
        ints: Box<[i64]>,
        /// The string members, ascending.
        strs: Box<[String]>,
    },
}

impl CompiledCoverage {
    /// Whether `value` is covered.
    #[inline]
    pub fn covers(&self, value: ColumnView<'_>) -> bool {
        match self {
            CompiledCoverage::None => false,
            CompiledCoverage::All => true,
            CompiledCoverage::IntRange { lo, hi } => {
                matches!(value, ColumnView::Int(v) if *lo <= v && v <= *hi)
            }
            CompiledCoverage::Set { null, ints, strs } => match value {
                ColumnView::Null => *null,
                ColumnView::Int(v) => ints.binary_search(&v).is_ok(),
                ColumnView::Str(s) => strs.binary_search_by(|m| m.as_str().cmp(s)).is_ok(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compiled_coverage_agrees_with_covers() {
        let values = [
            Value::Null,
            Value::Int(i64::MIN),
            Value::Int(-1),
            Value::Int(0),
            Value::Int(7),
            Value::Int(i64::MAX),
            Value::from(""),
            Value::from("ORD"),
            Value::from("ORE"),
        ];
        let mut shapes = vec![
            Coverage::None,
            Coverage::All,
            Coverage::IntRange { lo: -1, hi: 7 },
            Coverage::IntRange { lo: 7, hi: -1 },
            Coverage::empty_set(),
        ];
        for members in [&values[..], &values[..1], &values[2..5], &values[6..8]] {
            shapes.push(Coverage::Set(members.iter().cloned().collect()));
        }
        for shape in &shapes {
            let compiled = shape.compile();
            for v in &values {
                assert_eq!(
                    compiled.covers(v.view()),
                    shape.covers(v),
                    "{shape:?} on {v}"
                );
            }
        }
    }

    #[test]
    fn none_and_all() {
        assert!(!Coverage::None.covers(&Value::Int(1)));
        assert!(Coverage::All.covers(&Value::Int(1)));
        assert!(Coverage::All.covers(&Value::from("x")));
    }

    #[test]
    fn int_range_bounds_inclusive() {
        let c = Coverage::IntRange { lo: 1, hi: 5000 };
        assert!(c.covers(&Value::Int(1)));
        assert!(c.covers(&Value::Int(5000)));
        assert!(!c.covers(&Value::Int(0)));
        assert!(!c.covers(&Value::Int(5001)));
        assert!(
            !c.covers(&Value::from("5")),
            "non-int never covered by range"
        );
    }

    #[test]
    fn set_mutation() {
        let mut c = Coverage::empty_set();
        assert!(!c.covers(&Value::Int(7)));
        assert!(c.add_value(Value::Int(7)));
        assert!(!c.add_value(Value::Int(7)));
        assert!(c.covers(&Value::Int(7)));
        assert!(c.remove_value(&Value::Int(7)));
        assert!(!c.remove_value(&Value::Int(7)));
        assert!(!c.covers(&Value::Int(7)));
    }

    #[test]
    #[should_panic(expected = "non-set coverage")]
    fn add_value_on_range_panics() {
        Coverage::IntRange { lo: 0, hi: 1 }.add_value(Value::Int(5));
    }
}
