//! Fixture: filesystem mutation outside `store.rs` tears artifacts when
//! the process dies mid-operation; the crash-safe
//! `dbsherlock_core::store::ModelStore` is the only sanctioned writer.

use std::fs::{self, File, OpenOptions};

pub fn mutates_by_hand(p: &Path, q: &Path) {
    let _ = std::fs::rename(p, q); // REAL
    let _ = std::fs::remove_file(p); // REAL
    let _ = File::create(p); // REAL
    let _ = OpenOptions::new().append(true).open(p); // REAL
}

pub fn persists_by_hand(path: &str, body: &str) {
    let _ = std::fs::write(path, body); // REAL
    let _ = fs::write(path, body); // REAL
}

pub fn reads_are_fine(p: &Path) {
    let _ = std::fs::read_to_string(p);
    let _ = File::open(p);
    let _ = OpenOptions::new().read(true).open(p);
}

pub fn writer_methods_are_fine(buf: &[u8]) -> std::io::Result<()> {
    let mut sink: Vec<u8> = Vec::new();
    use std::io::Write;
    sink.write(buf)?;
    sink.write_all(buf)
}

pub fn sanctioned_site(p: &Path) {
    // sherlock-lint: allow(unsynced-store-write): recovery scratch file, checksummed on read
    let _ = std::fs::remove_file(p);
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_mutate_freely() {
        let _ = std::fs::remove_file("/tmp/scratch");
    }
}
