//! Property tests of the storage substrate: slotted pages and heap files
//! against model implementations.

use adaptive_index_buffer::storage::page::{PageView, SlottedPage};
use adaptive_index_buffer::storage::{
    BufferPool, BufferPoolConfig, CostModel, DiskManager, HeapFile, Rid, SlotId, PAGE_SIZE,
};
use proptest::prelude::*;
use std::collections::HashMap;

#[derive(Debug, Clone)]
enum PageOp {
    Insert(Vec<u8>),
    Delete(usize),
    Update(usize, Vec<u8>),
}

fn page_op() -> impl Strategy<Value = PageOp> {
    prop_oneof![
        3 => prop::collection::vec(any::<u8>(), 1..900).prop_map(PageOp::Insert),
        1 => (0usize..64).prop_map(PageOp::Delete),
        2 => ((0usize..64), prop::collection::vec(any::<u8>(), 1..900))
            .prop_map(|(i, b)| PageOp::Update(i, b)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The slotted page behaves exactly like a map from slot ids to byte
    /// strings, under arbitrary insert/delete/update interleavings,
    /// including compaction.
    #[test]
    fn slotted_page_matches_model(ops in prop::collection::vec(page_op(), 1..120)) {
        let mut buf = vec![0u8; PAGE_SIZE];
        let mut page = SlottedPage::new(&mut buf);
        let mut model: HashMap<SlotId, Vec<u8>> = HashMap::new();
        let mut live_slots: Vec<SlotId> = Vec::new();

        for op in ops {
            match op {
                PageOp::Insert(bytes) => {
                    if let Some(slot) = page.insert(&bytes) {
                        prop_assert!(!model.contains_key(&slot), "insert reused a live slot");
                        model.insert(slot, bytes);
                        live_slots.push(slot);
                    } else {
                        // Rejection must mean it genuinely cannot fit.
                        prop_assert!(!page.fits(bytes.len()));
                    }
                }
                PageOp::Delete(i) => {
                    if live_slots.is_empty() { continue; }
                    let slot = live_slots.remove(i % live_slots.len());
                    prop_assert!(page.delete(slot));
                    model.remove(&slot);
                }
                PageOp::Update(i, bytes) => {
                    if live_slots.is_empty() { continue; }
                    let slot = live_slots[i % live_slots.len()];
                    if page.update(slot, &bytes) {
                        model.insert(slot, bytes);
                    } else {
                        // Failed update must be a no-op.
                        prop_assert_eq!(page.get(slot).unwrap(), &model[&slot][..]);
                    }
                }
            }
            // Full-state agreement after every op.
            prop_assert_eq!(page.live_count(), model.len());
            for (slot, bytes) in &model {
                prop_assert_eq!(page.get(*slot), Some(&bytes[..]));
            }
        }
        // The read-only view agrees with the editor.
        let view = PageView::new(&buf);
        let via_view: HashMap<SlotId, Vec<u8>> =
            view.iter().map(|(s, b)| (s, b.to_vec())).collect();
        prop_assert_eq!(via_view, model);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Decoding never panics on arbitrary bytes — corrupt page data must
    /// surface as `StorageError::Corrupt`, not a crash.
    #[test]
    fn tuple_decode_is_panic_free(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        use adaptive_index_buffer::storage::{Tuple, Value};
        let _ = Tuple::from_bytes(&bytes);
        let _ = Tuple::read_column(&bytes, 0);
        let _ = Tuple::read_column(&bytes, 3);
        let mut pos = 0;
        let _ = Value::decode(&bytes, &mut pos);
        let mut pos = 0;
        let _ = Value::skip(&bytes, &mut pos);
    }

    /// Round-trips survive arbitrary valid tuples.
    #[test]
    fn tuple_roundtrip_arbitrary(values in prop::collection::vec(
        prop_oneof![
            Just(adaptive_index_buffer::storage::Value::Null),
            any::<i64>().prop_map(adaptive_index_buffer::storage::Value::Int),
            ".{0,40}".prop_map(adaptive_index_buffer::storage::Value::from),
        ],
        0..12,
    )) {
        use adaptive_index_buffer::storage::Tuple;
        let t = Tuple::new(values);
        let bytes = t.to_bytes();
        prop_assert_eq!(bytes.len(), t.encoded_len());
        let back = Tuple::from_bytes(&bytes).unwrap();
        prop_assert_eq!(&back, &t);
        for (i, v) in t.values().iter().enumerate() {
            prop_assert_eq!(&Tuple::read_column(&bytes, i).unwrap(), v);
        }
    }
}

#[derive(Debug, Clone)]
enum HeapOp {
    Insert(Vec<u8>),
    Delete(usize),
    Update(usize, Vec<u8>),
    Get(usize),
}

fn heap_op() -> impl Strategy<Value = HeapOp> {
    prop_oneof![
        4 => prop::collection::vec(any::<u8>(), 1..2000).prop_map(HeapOp::Insert),
        2 => (0usize..1000).prop_map(HeapOp::Delete),
        2 => ((0usize..1000), prop::collection::vec(any::<u8>(), 1..2000))
            .prop_map(|(i, b)| HeapOp::Update(i, b)),
        1 => (0usize..1000).prop_map(HeapOp::Get),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The heap file behaves like a map from rids to byte strings across
    /// page spills, moves, and a tiny buffer pool forcing evictions.
    #[test]
    fn heap_matches_model(ops in prop::collection::vec(heap_op(), 1..150)) {
        let pool = BufferPool::new(
            DiskManager::new(CostModel::free()),
            BufferPoolConfig::lru(3),
        );
        let heap = HeapFile::new(pool);
        let mut model: HashMap<Rid, Vec<u8>> = HashMap::new();
        let mut rids: Vec<Rid> = Vec::new();

        for op in ops {
            match op {
                HeapOp::Insert(bytes) => {
                    let rid = heap.insert(&bytes).unwrap();
                    prop_assert!(!model.contains_key(&rid));
                    model.insert(rid, bytes);
                    rids.push(rid);
                }
                HeapOp::Delete(i) => {
                    if rids.is_empty() { continue; }
                    let rid = rids.remove(i % rids.len());
                    heap.delete(rid).unwrap();
                    model.remove(&rid);
                }
                HeapOp::Update(i, bytes) => {
                    if rids.is_empty() { continue; }
                    let idx = i % rids.len();
                    let old = rids[idx];
                    let new = heap.update(old, &bytes).unwrap();
                    model.remove(&old);
                    prop_assert!(!model.contains_key(&new), "moved rid collides");
                    model.insert(new, bytes);
                    rids[idx] = new;
                }
                HeapOp::Get(i) => {
                    if rids.is_empty() { continue; }
                    let rid = rids[i % rids.len()];
                    prop_assert_eq!(heap.get(rid).unwrap(), model[&rid].clone());
                }
            }
            prop_assert_eq!(heap.live_tuples() as usize, model.len());
        }
        // Full scan — one unskipped run over the heap — yields exactly the
        // model.
        let mut scanned: HashMap<Rid, Vec<u8>> = HashMap::new();
        heap.sweep_read_runs([(0..heap.num_pages(), false)], |_, page, view| {
            for (slot, bytes) in view.iter() {
                scanned.insert(Rid { page, slot }, bytes.to_vec());
            }
        }).unwrap();
        prop_assert_eq!(scanned, model);
    }
}
