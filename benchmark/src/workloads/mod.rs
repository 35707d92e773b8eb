//! The three workloads. Each drives the program only through its public
//! entry points, builds its inputs from the seed, and checks every output
//! against a reference built in set-up.

pub mod corpus_scan;
pub mod serve_analyze;
pub mod study;

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The popularity threshold `Study::run_static` passes to `aggregate`.
pub const TOP_SDK_THRESHOLD: usize = 1;

/// A scratch directory under this package's `.work/`, removed on drop.
/// The benchmark writes nothing outside the checkout it was built in.
#[derive(Debug)]
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Fresh, empty directory unique to this process, `tag` and call.
    pub fn new(tag: &str) -> std::io::Result<WorkDir> {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(".work")
            .join(format!("{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(WorkDir(path))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave `.work/` itself only while another run still uses it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}
