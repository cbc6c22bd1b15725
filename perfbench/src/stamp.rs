//! Block stamps for the data workloads' output checks.
//!
//! Every 4 KiB page the benchmark writes carries `(thread, page, generation)`
//! at its head and again at its tail. A read passes only when every page
//! it returns carries the stamp of the latest write the benchmark made to
//! that page, so a lost, torn or misplaced write fails the run.

pub const PAGE: usize = 4096;
const MAGIC: u32 = 0x7710_5A4D;
const STAMP: usize = 24;

fn encode(thread: u32, page: u64, gen: u32) -> [u8; STAMP] {
    let mut s = [0u8; STAMP];
    s[0..4].copy_from_slice(&MAGIC.to_le_bytes());
    s[4..8].copy_from_slice(&thread.to_le_bytes());
    s[8..16].copy_from_slice(&page.to_le_bytes());
    s[16..20].copy_from_slice(&gen.to_le_bytes());
    s
}

/// Stamps each page of `buf`, which will be written at file page
/// `first_page`, with generation `gens[page]`.
pub fn stamp(buf: &mut [u8], thread: u32, first_page: u64, gens: &[u32]) {
    for (i, page) in buf.chunks_exact_mut(PAGE).enumerate() {
        let p = first_page + i as u64;
        let s = encode(thread, p, gens[p as usize]);
        page[..STAMP].copy_from_slice(&s);
        page[PAGE - STAMP..].copy_from_slice(&s);
    }
}

/// Checks that each page of `buf`, read from file page `first_page`, holds
/// the stamp of generation `gens[page]`. Returns the first bad page.
pub fn check(buf: &[u8], thread: u32, first_page: u64, gens: &[u32]) -> Result<(), u64> {
    for (i, page) in buf.chunks_exact(PAGE).enumerate() {
        let p = first_page + i as u64;
        let s = encode(thread, p, gens[p as usize]);
        if page[..STAMP] != s || page[PAGE - STAMP..] != s {
            return Err(p);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamp_round_trips_and_catches_stale_generations() {
        let mut gens = vec![0u32; 4];
        let mut buf = vec![0u8; 2 * PAGE];
        gens[2] = 3;
        gens[3] = 1;
        stamp(&mut buf, 7, 2, &gens);
        assert_eq!(check(&buf, 7, 2, &gens), Ok(()));
        gens[3] = 2;
        assert_eq!(check(&buf, 7, 2, &gens), Err(3));
        assert_eq!(check(&buf, 8, 2, &[0, 0, 3, 1]), Err(2));
    }
}
