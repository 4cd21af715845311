//! Stamps `lf-bench` with its build identity: one hash of every source it
//! is built from, so data a build derives from those sources can say which
//! build derived it.
//!
//! The hash covers every `.rs` file and `Cargo.toml` of `lf-bench` and of
//! the workspace crates it depends on, the workspace `Cargo.toml` and
//! `Cargo.lock`, and the build profile. Paths enter relative to the
//! workspace root, so two checkouts of one tree share an identity. It is
//! exported as `LF_BENCH_BUILD_ID` (16 hex digits) for `env!`. Std only:
//! builds run offline.

use std::path::{Path, PathBuf};

/// The workspace crates `lf-bench` is built from, itself included: every
/// member but `lf-verify`.
const CRATES: [&str; 8] =
    ["baselines", "bench", "compiler", "core", "isa", "stats", "uarch", "workloads"];

/// 64-bit FNV-1a, the hash the run fingerprints use.
struct Fnv(u64);

impl Fnv {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Writes `bytes` with its length first, so no two sequences of writes
    /// run together into the same stream.
    fn field(&mut self, bytes: &[u8]) {
        self.write(&(bytes.len() as u64).to_le_bytes());
        self.write(bytes);
    }
}

/// Every `.rs` and `Cargo.toml` file under `dir`, recursively.
fn sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    for entry in entries {
        let path = entry.unwrap_or_else(|e| panic!("{}: {e}", dir.display())).path();
        if path.is_dir() {
            sources(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs")
            || path.file_name().is_some_and(|n| n == "Cargo.toml")
        {
            out.push(path);
        }
    }
}

fn main() {
    let manifest = std::env::var_os("CARGO_MANIFEST_DIR").expect("cargo sets CARGO_MANIFEST_DIR");
    let root = Path::new(&manifest).join("../..");
    let mut files = Vec::new();
    for krate in CRATES {
        let dir = root.join("crates").join(krate);
        println!("cargo:rerun-if-changed={}", dir.display());
        sources(&dir, &mut files);
    }
    for name in ["Cargo.toml", "Cargo.lock"] {
        let path = root.join(name);
        println!("cargo:rerun-if-changed={}", path.display());
        files.push(path);
    }
    let mut named: Vec<(String, PathBuf)> = files
        .into_iter()
        .map(|path| {
            let rel = path.strip_prefix(&root).expect("every source is under the workspace root");
            let rel = rel.components().map(|c| c.as_os_str().to_string_lossy()).collect::<Vec<_>>();
            (rel.join("/"), path)
        })
        .collect();
    named.sort();
    let mut hash = Fnv(0xcbf2_9ce4_8422_2325);
    for (rel, path) in &named {
        let bytes = std::fs::read(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        hash.field(rel.as_bytes());
        hash.field(&bytes);
    }
    hash.field(std::env::var("PROFILE").unwrap_or_default().as_bytes());
    println!("cargo:rustc-env=LF_BENCH_BUILD_ID={:016x}", hash.0);
}
