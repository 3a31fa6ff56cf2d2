//! The mmap read path: read-only opens must serve byte-identical pages
//! to the buffered pager, reject every mutation, and fall back to the
//! buffered path whenever the file cannot be mapped whole.

use si_storage::{BTree, Pager, PAGE_SIZE};

fn tmp_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "si-mmap-{name}-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .subsec_nanos()
    ))
}

fn patterned_file(name: &str, pages: u32) -> std::path::PathBuf {
    let path = tmp_path(name);
    let pager = Pager::create(&path).unwrap();
    for p in 0..pages {
        let id = pager.allocate().unwrap();
        assert_eq!(id, p);
        let mut buf = [0u8; PAGE_SIZE];
        for (i, b) in buf.iter_mut().enumerate() {
            *b = ((i as u32).wrapping_mul(31).wrapping_add(p * 7) & 0xFF) as u8;
        }
        pager.write(id, &buf).unwrap();
    }
    pager.flush().unwrap();
    path
}

#[test]
fn mapped_and_buffered_pagers_read_identically() {
    let pages = 9u32;
    let path = patterned_file("ident", pages);
    let buffered = Pager::open(&path).unwrap();
    let mapped = Pager::open_readonly(&path).unwrap();
    assert!(!buffered.is_mapped());
    #[cfg(unix)]
    assert!(mapped.is_mapped(), "unix read-only opens should map");
    assert_eq!(mapped.page_count(), pages);
    for p in 0..pages {
        let mut a = [0u8; PAGE_SIZE];
        let mut b = [0u8; PAGE_SIZE];
        buffered.read(p, &mut a).unwrap();
        mapped.read(p, &mut b).unwrap();
        assert_eq!(a[..], b[..], "page {p}");
        // The borrow-based accessor serves the same bytes.
        let c = mapped.with_page(p, |page| page.to_vec()).unwrap();
        assert_eq!(a[..], c[..], "page {p} via with_page");
    }
    // Out-of-range reads fail on both.
    let mut buf = [0u8; PAGE_SIZE];
    assert!(mapped.read(pages, &mut buf).is_err());
    assert!(buffered.read(pages, &mut buf).is_err());
    std::fs::remove_file(&path).ok();
}

#[cfg(unix)]
#[test]
fn mapped_pager_rejects_mutation() {
    let path = patterned_file("reject", 3);
    let mapped = Pager::open_readonly(&path).unwrap();
    assert!(mapped.is_mapped());
    let buf = [0u8; PAGE_SIZE];
    assert!(mapped.write(0, &buf).is_err(), "write must be rejected");
    assert!(mapped.allocate().is_err(), "allocate must be rejected");
    // The file on disk is untouched by the rejected attempts.
    let mut before = [0u8; PAGE_SIZE];
    mapped.read(0, &mut before).unwrap();
    drop(mapped);
    let reread = Pager::open(&path).unwrap();
    let mut after = [0u8; PAGE_SIZE];
    reread.read(0, &mut after).unwrap();
    assert_eq!(before[..], after[..]);
    std::fs::remove_file(&path).ok();
}

/// Files that cannot be mapped whole (here: empty) fall back to the
/// buffered pager instead of failing the open.
#[test]
fn unmappable_files_fall_back_to_the_buffered_pager() {
    let path = tmp_path("fallback");
    Pager::create(&path).unwrap().flush().unwrap();
    let pager = Pager::open_readonly(&path).unwrap();
    assert!(!pager.is_mapped(), "zero-length files cannot be mapped");
    assert_eq!(pager.page_count(), 0);
    std::fs::remove_file(&path).ok();

    // A file that is not a whole number of pages is corrupt either way.
    let odd = tmp_path("odd");
    std::fs::write(&odd, vec![0u8; PAGE_SIZE + 100]).unwrap();
    assert!(Pager::open_readonly(&odd).is_err());
    assert!(Pager::open(&odd).is_err());
    std::fs::remove_file(&odd).ok();
}

#[test]
fn btree_readonly_open_serves_identical_values_and_rejects_writes() {
    let path = tmp_path("btree");
    let pairs: Vec<(Vec<u8>, Vec<u8>)> = (0..400u32)
        .map(|i| {
            let key = format!("key-{i:05}").into_bytes();
            // Mix short values with multi-page heap extents.
            let len = if i % 37 == 0 {
                3 * PAGE_SIZE + 17
            } else {
                40 + i as usize
            };
            let value: Vec<u8> = (0..len).map(|j| ((j as u32 ^ i) & 0xFF) as u8).collect();
            (key, value)
        })
        .collect();
    let mut bt = BTree::bulk_load(&path, pairs.clone()).unwrap();
    bt.flush().unwrap();
    drop(bt);

    let rw = BTree::open(&path).unwrap();
    let ro = BTree::open_readonly(&path).unwrap();
    assert!(!rw.is_mapped());
    #[cfg(unix)]
    assert!(ro.is_mapped());
    for (k, v) in &pairs {
        assert_eq!(rw.get(k).unwrap().as_deref(), Some(v.as_slice()));
        assert_eq!(ro.get(k).unwrap().as_deref(), Some(v.as_slice()));
    }
    // Iteration over the mapped tree sees every pair in order.
    let walked: Vec<(Vec<u8>, Vec<u8>)> = ro.iter().unwrap().map(|e| e.unwrap()).collect();
    assert_eq!(walked, pairs);
    #[cfg(unix)]
    {
        // The one write an open tree still takes: its meta page.
        let mut ro = ro;
        assert!(ro.flush().is_err(), "mapped trees reject writes");
    }
    std::fs::remove_file(&path).ok();
}

/// A bulk-loaded tree answers `get`, `value_len`, `contains` and `iter`
/// like the `BTreeMap` it was loaded from — while still open, and after
/// a reopen on either read path. Keys run up to `KEY_MAX` so a few
/// hundred of them make a tree several levels deep; values straddle
/// `INLINE_MAX` so the leaves and the heap both carry them.
#[test]
fn bulk_loaded_tree_answers_like_a_btreemap_on_both_read_paths() {
    use si_corpus::rng::StdRng;
    use si_storage::btree::{INLINE_MAX, KEY_MAX};
    use std::collections::BTreeMap;

    let mut deepest = 0;
    for seed in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(0x5EED_B7EE + seed);
        // A small alphabet and short keys force shared prefixes and
        // near-misses; the occasional long key forces depth.
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        for _ in 0..rng.gen_range(0usize..500) {
            let key_len = if rng.gen_bool(0.3) {
                rng.gen_range(KEY_MAX / 2..KEY_MAX + 1)
            } else {
                rng.gen_range(1usize..20)
            };
            let key: Vec<u8> = (0..key_len)
                .map(|_| rng.gen_range(0u32..16) as u8)
                .collect();
            let value_len = match rng.gen_range(0u32..10) {
                0 => 0,
                1 => INLINE_MAX,
                2 => INLINE_MAX + 1,
                3 => rng.gen_range(PAGE_SIZE..5 * PAGE_SIZE),
                _ => rng.gen_range(1usize..200),
            };
            let salt = rng.gen_range(0u32..256);
            let value = (0..value_len).map(|i| (i as u32 ^ salt) as u8).collect();
            model.insert(key, value);
        }
        let probes: Vec<Vec<u8>> = (0..200)
            .map(|_| {
                let len = rng.gen_range(1usize..20);
                (0..len).map(|_| rng.gen_range(0u32..16) as u8).collect()
            })
            .collect();

        let path = tmp_path("model");
        let mut built = BTree::bulk_load(&path, model.clone()).unwrap();
        built.flush().unwrap();
        let reopened = [
            BTree::open(&path).unwrap(),
            BTree::open_readonly(&path).unwrap(),
        ];
        for tree in std::iter::once(&built).chain(&reopened) {
            assert_eq!(tree.stats().key_count, model.len() as u64, "seed {seed}");
            for (key, value) in &model {
                assert_eq!(tree.get(key).unwrap().as_ref(), Some(value), "seed {seed}");
                assert_eq!(tree.value_len(key).unwrap(), Some(value.len() as u64));
            }
            for probe in &probes {
                assert_eq!(tree.get(probe).unwrap().as_ref(), model.get(probe));
                assert_eq!(tree.contains(probe).unwrap(), model.contains_key(probe));
            }
            let walked: Vec<_> = tree.iter().unwrap().map(|e| e.unwrap()).collect();
            let want: Vec<_> = model.clone().into_iter().collect();
            assert_eq!(walked, want, "seed {seed}");
        }
        deepest = deepest.max(built.stats().height);
        std::fs::remove_file(&path).ok();
    }
    assert!(deepest >= 2, "some seed builds internal levels: {deepest}");
}
