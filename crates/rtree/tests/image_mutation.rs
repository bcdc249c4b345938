//! Tree images are bytes from outside the program. Whatever is done to
//! one — truncation, a flipped bit, a header that lies — decoding must
//! either refuse it or hand out a tree that validates and answers queries
//! without panicking; both formats go through `AnyTree::from_bytes`.

use obstacle_geom::rng::{Rng, SeedableRng, SmallRng};
use obstacle_geom::{Point, Rect};
use obstacle_rtree::{AnyTree, Backend, Item, RTreeConfig, TreeBackend};

/// Integer header fields as `(offset, width)`; `end` is the header length
/// (everything after it is page records / packed words). The paged
/// header also carries three `f64` ratios at 22..46, which the bit flips
/// reach.
struct Layout {
    ints: &'static [(usize, usize)],
    end: usize,
}

/// `ORTR` v2: magic, version, page_size, entry_bytes, header_bytes,
/// capacity_override, (ratios), min_buffer_pages, reserved, root, height,
/// len, slot_count.
const PAGED: Layout = Layout {
    ints: &[
        (4, 2),
        (6, 4),
        (10, 4),
        (14, 4),
        (18, 4),
        (46, 4),
        (50, 4),
        (54, 4),
        (58, 4),
        (62, 8),
        (70, 4),
    ],
    end: 74,
};

/// `OPKD` v1: magic, version, node_size, num_items, word_count.
const PACKED: Layout = Layout {
    ints: &[(4, 2), (6, 2), (8, 8), (16, 8)],
    end: 24,
};

fn image(backend: Backend) -> Vec<u8> {
    let config = RTreeConfig {
        packed_node_size: 4,
        ..RTreeConfig::tiny(4).with_backend(backend)
    };
    let items = (0..300u64).map(|i| {
        Item::point(
            Point::new((i % 17) as f64 * 0.31, (i % 23) as f64 * 0.17),
            i,
        )
    });
    AnyTree::build(config, items).to_bytes().to_vec()
}

/// The only two acceptable outcomes for `bytes`.
fn refused_or_sound(bytes: &[u8], what: &str) {
    let Ok(tree) = AnyTree::from_bytes(bytes) else {
        return;
    };
    let valid = match &tree {
        AnyTree::Paged(t) => t.validate(false),
        AnyTree::Packed(t) => t.validate(),
    };
    if let Err(why) = valid {
        panic!("{what}: decoded a tree that does not validate: {why}");
    }
    let _ = tree.range_rect(&Rect::from_coords(0.5, 0.5, 3.0, 2.5));
    let _ = tree.k_nearest(Point::new(2.0, 1.5), 20);
}

fn mutate(original: &[u8], layout: &Layout, name: &str, seed: u64) {
    refused_or_sound(original, name);
    assert!(
        AnyTree::from_bytes(original).is_ok(),
        "{name}: the unmutated image must load"
    );
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut random_offset = |len: usize| rng.gen_range_u64(0, len as u64) as usize;

    // Truncation: at every header field boundary, and at random offsets.
    let boundaries = layout.ints.iter().flat_map(|&(at, w)| [at, at + w]);
    let random_cuts: Vec<usize> = (0..200).map(|_| random_offset(original.len())).collect();
    for cut in boundaries.chain([0, layout.end]).chain(random_cuts) {
        refused_or_sound(&original[..cut], &format!("{name} cut at {cut}"));
    }

    // Single bit flips: every header bit, and random bits of the body.
    let header_bits = 0..layout.end * 8;
    let body_bits: Vec<usize> = (0..2000)
        .map(|_| random_offset(original.len() * 8))
        .collect();
    for bit in header_bits.chain(body_bits) {
        let mut bytes = original.to_vec();
        bytes[bit / 8] ^= 1 << (bit % 8);
        refused_or_sound(&bytes, &format!("{name} bit {bit} flipped"));
    }

    // Header lies: each integer overwritten with 0, 1 and its maximum.
    for &(at, width) in layout.ints {
        for value in [0u64, 1, u64::MAX] {
            let mut bytes = original.to_vec();
            bytes[at..at + width].copy_from_slice(&value.to_le_bytes()[..width]);
            refused_or_sound(&bytes, &format!("{name} field at {at} := {value:#x}"));
        }
    }
}

#[test]
fn mutated_paged_images_are_refused_or_sound() {
    mutate(&image(Backend::Paged), &PAGED, "paged", 0x1A6E_0001);
}

#[test]
fn mutated_packed_images_are_refused_or_sound() {
    mutate(&image(Backend::Packed), &PACKED, "packed", 0x1A6E_0002);
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

/// Images written by the commit before the buffer-lock count left the
/// format (three points, `RTreeConfig::paper()`): they must keep loading
/// and re-serialize to the same bytes — the paged layout keeps the
/// count's `u32` as a reserved slot.
#[test]
fn images_written_before_the_reserved_slot_round_trip_byte_identically() {
    const PAGED_V2: &str = "4f5254520200001000001400000010000000000000009a9999999999d93f\
        333333333333d33f9a9999999999b93f010000000100000000000000010000000300000000000000\
        01000000010000000003000000000000000000d03f000000000000e03f000000000000d03f00000000\
        0000e03f0700000000000000000000000000e83f000000000000c03f000000000000e83f0000000000\
        00c03f0800000000000000000000000000e03f000000000000f03f000000000000e03f000000000000\
        f03f0900000000000000";
    const PACKED_V1: &str = "4f504b440100100003000000000000001400000000000000000000000000\
        d03f000000000000e03f000000000000d03f000000000000e03f000000000000e03f000000000000f03f\
        000000000000e03f000000000000f03f000000000000e83f000000000000c03f000000000000e83f0000\
        00000000c03f000000000000d03f000000000000c03f000000000000e83f000000000000f03f07000000\
        00000000090000000000000008000000000000000000000000000000";
    for (name, hex) in [("paged", PAGED_V2), ("packed", PACKED_V1)] {
        let bytes = unhex(hex);
        let tree = AnyTree::from_bytes(&bytes).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(tree.len(), 3, "{name}");
        assert_eq!(&*tree.to_bytes(), &bytes[..], "{name}");
    }
}
