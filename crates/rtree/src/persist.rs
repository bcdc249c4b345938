//! Byte-image persistence of a tree.
//!
//! Pages serialise to a simple little-endian layout (magic, config, free
//! list, then one record per page slot). Coordinates are stored as `f64`
//! so a round trip is bit-exact; note that the *cost-model* entry size
//! (20 bytes, matching the paper's 4 KiB/204-entry pages) is a property of
//! the simulated disk and is carried in the config, independent of this
//! on-disk image.

use crate::codec::{Buf, BufMut, Bytes, BytesMut};
use crate::config::RTreeConfig;
use crate::entry::Entry;
use crate::node::Node;
use crate::store::PageStore;
use crate::tree::RTree;
use obstacle_geom::Rect;
use std::path::Path;

const MAGIC: &[u8; 4] = b"ORTR";
const VERSION: u16 = 2;

/// Errors produced when decoding a tree image.
#[derive(Debug)]
pub enum PersistError {
    /// The image does not start with the expected magic bytes.
    BadMagic,
    /// The image was produced by an unsupported format version.
    BadVersion(u16),
    /// The image ended prematurely or contains inconsistent counts.
    Truncated,
    /// The image is complete but does not describe a valid tree (failed
    /// the structural check; the message names the first violation).
    Corrupt(String),
    /// Reading or writing the backing file failed.
    Io(std::io::Error),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::BadMagic => write!(f, "not an R-tree image (bad magic)"),
            PersistError::BadVersion(v) => write!(f, "unsupported image version {v}"),
            PersistError::Truncated => write!(f, "truncated or inconsistent image"),
            PersistError::Corrupt(why) => write!(f, "corrupt image: {why}"),
            PersistError::Io(e) => write!(f, "I/O error: {e}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl RTree {
    /// Serialises the tree (structure + config) to a byte image.
    pub fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(64 + self.pages() * 64);
        buf.put_slice(MAGIC);
        buf.put_u16_le(VERSION);
        // Config.
        let c = &self.config;
        buf.put_u32_le(c.page_size as u32);
        buf.put_u32_le(c.entry_bytes as u32);
        buf.put_u32_le(c.header_bytes as u32);
        buf.put_u32_le(c.capacity_override.map(|v| v as u32).unwrap_or(0));
        buf.put_f64_le(c.min_fill_ratio);
        buf.put_f64_le(c.reinsert_ratio);
        buf.put_f64_le(c.buffer_ratio);
        buf.put_u32_le(c.min_buffer_pages as u32);
        // Reserved (v2 stored a buffer lock count here): written 1,
        // ignored on read, so older images load and the layout is stable.
        buf.put_u32_le(1);
        // Tree header.
        buf.put_u32_le(self.root);
        buf.put_u32_le(self.height);
        buf.put_u64_le(self.len as u64);
        // Pages.
        let slots = self.store.slots();
        buf.put_u32_le(slots.len() as u32);
        for slot in slots {
            match slot {
                None => buf.put_u8(0),
                Some(node) => {
                    buf.put_u8(1);
                    buf.put_u32_le(node.level);
                    buf.put_u32_le(node.len() as u32);
                    for e in &node.entries {
                        buf.put_f64_le(e.mbr.min.x);
                        buf.put_f64_le(e.mbr.min.y);
                        buf.put_f64_le(e.mbr.max.x);
                        buf.put_f64_le(e.mbr.max.y);
                        buf.put_u64_le(e.ptr);
                    }
                }
            }
        }
        buf.freeze()
    }

    /// Reconstructs a tree from a byte image produced by
    /// [`RTree::to_bytes`]. The LRU buffer starts cold and counters start
    /// at zero.
    pub fn from_bytes(mut data: &[u8]) -> Result<RTree, PersistError> {
        fn need(data: &[u8], n: usize) -> Result<(), PersistError> {
            if data.remaining() < n {
                Err(PersistError::Truncated)
            } else {
                Ok(())
            }
        }
        need(data, 6)?;
        let mut magic = [0u8; 4];
        data.copy_to_slice(&mut magic);
        if &magic != MAGIC {
            return Err(PersistError::BadMagic);
        }
        let version = data.get_u16_le();
        if version != VERSION {
            return Err(PersistError::BadVersion(version));
        }
        need(data, 4 * 4 + 8 * 3 + 4 + 4)?;
        let config = RTreeConfig {
            page_size: data.get_u32_le() as usize,
            entry_bytes: data.get_u32_le() as usize,
            header_bytes: data.get_u32_le() as usize,
            capacity_override: match data.get_u32_le() {
                0 => None,
                v => Some(v as usize),
            },
            min_fill_ratio: data.get_f64_le(),
            reinsert_ratio: data.get_f64_le(),
            buffer_ratio: data.get_f64_le(),
            min_buffer_pages: data.get_u32_le() as usize,
            // An ORTR image is by definition a paged tree; the packed
            // backend has its own format (see `crate::packed`). The
            // backend knobs are not part of the page-image layout.
            backend: crate::config::Backend::Paged,
            packed_node_size: RTreeConfig::default().packed_node_size,
        };
        let _reserved = data.get_u32_le();
        // `capacity()` divides by `entry_bytes`; the ratios size node
        // fills and the buffer through float→usize casts.
        let ratios = [
            config.min_fill_ratio,
            config.reinsert_ratio,
            config.buffer_ratio,
        ];
        if config.entry_bytes == 0
            || ratios.iter().any(|r| !r.is_finite() || *r < 0.0)
            || config.min_fill_ratio > 1.0
            || config.reinsert_ratio > 1.0
        {
            return Err(PersistError::Corrupt(format!(
                "impossible configuration {config:?}"
            )));
        }
        need(data, 4 + 4 + 8 + 4)?;
        let root = data.get_u32_le();
        let height = data.get_u32_le();
        let len = usize::try_from(data.get_u64_le()).map_err(|_| PersistError::Truncated)?;
        let slot_count = data.get_u32_le() as usize;
        // Every slot costs at least its one tag byte: bound the count by
        // the bytes that are left before reserving for it.
        need(data, slot_count)?;

        let mut pages: Vec<Option<Node>> = Vec::with_capacity(slot_count);
        for _ in 0..slot_count {
            need(data, 1)?;
            if data.get_u8() == 0 {
                pages.push(None);
                continue;
            }
            need(data, 8)?;
            let level = data.get_u32_le();
            let count = data.get_u32_le() as usize;
            need(data, count.checked_mul(40).ok_or(PersistError::Truncated)?)?;
            let mut node = Node::new(level);
            node.entries.reserve_exact(count);
            for _ in 0..count {
                let minx = data.get_f64_le();
                let miny = data.get_f64_le();
                let maxx = data.get_f64_le();
                let maxy = data.get_f64_le();
                let ptr = data.get_u64_le();
                node.entries
                    .push(Entry::new(Rect::from_coords(minx, miny, maxx, maxy), ptr));
            }
            pages.push(Some(node));
        }
        let live = pages.iter().filter(|p| p.is_some()).count();
        let tree = RTree {
            config,
            store: PageStore::from_slots(pages, config.buffer_pages(live)),
            root,
            height,
            len,
        };
        // Bulk-loaded trees may end each level on an underfull node, so
        // the fill rule is not part of what makes an image loadable.
        tree.validate(false).map_err(PersistError::Corrupt)?;
        Ok(tree)
    }

    /// Writes the byte image to a file.
    pub fn save_to_file(&self, path: impl AsRef<Path>) -> Result<(), PersistError> {
        std::fs::write(path, self.to_bytes())?;
        Ok(())
    }

    /// Loads a tree image from a file.
    pub fn load_from_file(path: impl AsRef<Path>) -> Result<RTree, PersistError> {
        let data = std::fs::read(path)?;
        RTree::from_bytes(&data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::Item;
    use obstacle_geom::Point;

    fn sample_tree() -> RTree {
        RTree::build(
            RTreeConfig::tiny(4),
            (0..200u64).map(|i| {
                Item::point(
                    Point::new((i % 17) as f64 * 0.31, (i % 23) as f64 * 0.17),
                    i,
                )
            }),
        )
    }

    #[test]
    fn roundtrip_preserves_structure_and_answers() {
        let t = sample_tree();
        let img = t.to_bytes();
        let u = RTree::from_bytes(&img).unwrap();
        assert_eq!(u.len(), t.len());
        assert_eq!(u.height(), t.height());
        u.validate(true).unwrap();

        let q = Point::new(2.0, 1.5);
        let a: Vec<u64> = t.k_nearest(q, 20).into_iter().map(|(i, _)| i.id).collect();
        let b: Vec<u64> = u.k_nearest(q, 20).into_iter().map(|(i, _)| i.id).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn roundtrip_via_file() {
        let t = sample_tree();
        let path = std::env::temp_dir().join("obstacle_rtree_roundtrip.ortr");
        t.save_to_file(&path).unwrap();
        let u = RTree::load_from_file(&path).unwrap();
        assert_eq!(u.len(), t.len());
        u.validate(true).unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_garbage() {
        assert!(matches!(
            RTree::from_bytes(b"nope"),
            Err(PersistError::BadMagic) | Err(PersistError::Truncated)
        ));
        assert!(matches!(
            RTree::from_bytes(b"ORTR\xff\xff"),
            Err(PersistError::BadVersion(_)) | Err(PersistError::Truncated)
        ));
        // Truncated mid-page.
        let t = sample_tree();
        let img = t.to_bytes();
        let cut = &img[..img.len() / 2];
        assert!(matches!(
            RTree::from_bytes(cut),
            Err(PersistError::Truncated)
        ));
    }

    #[test]
    fn empty_tree_roundtrip() {
        let t = RTree::new(RTreeConfig::tiny(4));
        let u = RTree::from_bytes(&t.to_bytes()).unwrap();
        assert!(u.is_empty());
        u.validate(true).unwrap();
    }
}
