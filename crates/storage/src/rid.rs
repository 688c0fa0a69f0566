//! Page, slot, and record identifiers.

use std::fmt;

/// Identifier of a disk page, allocated by the [`crate::FileBackend`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u32);

impl PageId {
    /// Returns the raw index of the page.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// Slot number of a tuple within a slotted page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SlotId(pub u16);

impl fmt::Display for SlotId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Record identifier: the physical address of a tuple.
///
/// The Index Buffer stores `(value, Rid)` entries; the `Rid`'s page component
/// is what page-skip accounting (`C[p]`, partition coverage) is keyed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Rid {
    /// Page containing the tuple.
    pub page: PageId,
    /// Slot within the page.
    pub slot: SlotId,
}

impl Rid {
    /// Creates a record id from raw parts.
    #[inline]
    pub fn new(page: u32, slot: u16) -> Self {
        Rid {
            page: PageId(page),
            slot: SlotId(slot),
        }
    }
}

impl fmt::Display for Rid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.page, self.slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rid_ordering_is_page_major() {
        let a = Rid::new(1, 9);
        let b = Rid::new(2, 0);
        assert!(a < b);
        let c = Rid::new(1, 10);
        assert!(a < c);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Rid::new(3, 7).to_string(), "P3:s7");
        assert_eq!(PageId(12).to_string(), "P12");
        assert_eq!(SlotId(4).to_string(), "s4");
    }

    #[test]
    fn page_id_index_roundtrip() {
        assert_eq!(PageId(42).index(), 42);
    }
}
