//! Helpers shared by the CLI integration tests: a per-test fixture
//! directory and a runner for the workspace binaries.

use std::path::PathBuf;
use std::process::{Command, Output};

use csat::netlist::{bench, Aig};

/// A temporary directory holding one test's fixture files, removed on
/// drop. Binaries run with it as their working directory, so fixture
/// names double as command-line paths.
pub struct Fixtures {
    dir: PathBuf,
}

impl Fixtures {
    /// A fresh, empty directory named after the test and the process.
    pub fn new(test: &str) -> Fixtures {
        let dir = std::env::temp_dir().join(format!("csat-{test}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create fixture dir");
        Fixtures { dir }
    }

    /// The full path of the fixture `name`.
    pub fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    /// Writes `text` to the fixture `name` and returns its full path.
    pub fn write(&self, name: &str, text: &str) -> PathBuf {
        let path = self.path(name);
        std::fs::write(&path, text).expect("write fixture");
        path
    }

    /// Writes `aig` as the `.bench` fixture `name`.
    pub fn bench(&self, name: &str, aig: &Aig) -> PathBuf {
        self.write(name, &bench::write(aig))
    }

    /// Runs `csat` or `cec` with `args` inside the fixture directory.
    pub fn run(&self, bin: &str, args: &[&str]) -> Output {
        let exe = match bin {
            "csat" => env!("CARGO_BIN_EXE_csat"),
            "cec" => env!("CARGO_BIN_EXE_cec"),
            other => panic!("unknown binary {other}"),
        };
        Command::new(exe)
            .args(args)
            .current_dir(&self.dir)
            .output()
            .unwrap_or_else(|e| panic!("run {bin}: {e}"))
    }
}

impl Drop for Fixtures {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
