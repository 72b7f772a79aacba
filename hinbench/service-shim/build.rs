//! Copies `crates/hin-service/src` into `OUT_DIR` and compiles that copy.
//!
//! Why not depend on `crates/hin-service` directly: at the commit that added
//! the benchmark that crate does not compile (it was merged from a container
//! that could not build it), and the benchmark's change may touch no file
//! outside its own directory. The `FIXES` below (three defects, four places) are the whole
//! difference between the copy and the repository's source. Each is applied
//! only while its `from` text is still present, so once the crate is
//! corrected in place the copy is byte-identical and this file is a no-op
//! (at which point the shim can be replaced by a plain path dependency).
//! Every applied fix is printed as a cargo warning and named in
//! `hin_service::SOURCE`, which `hinbench` records in every result file.
//!
//! None of the four changes what the benchmark's requests execute: the
//! first three restore the names and the slice pattern the code plainly
//! means, and the fourth sits in `trace_node_from_value`, which only decodes
//! the span trees of `trace=1` requests, and the benchmark sends none.

use std::path::{Path, PathBuf};
use std::{env, fs, io};

struct Fix {
    file: &'static str,
    from: &'static str,
    to: &'static str,
    why: &'static str,
}

const FIXES: &[Fix] = &[
    Fix {
        file: "protocol.rs",
        from: "netout::ScoreOrder::Ascending)",
        to: "netout::ScoreOrder::AscendingIsOutlier)",
        why: "netout::ScoreOrder has no variant `Ascending`",
    },
    Fix {
        file: "coordinator.rs",
        from: "        ScoreOrder::Ascending\n    } else {\n        ScoreOrder::Descending\n",
        to: "        ScoreOrder::AscendingIsOutlier\n    } else {\n        ScoreOrder::DescendingIsOutlier\n",
        why: "netout::ScoreOrder has no variants `Ascending`/`Descending`",
    },
    Fix {
        file: "protocol.rs",
        from: "match kv.as_slice() {",
        to: "match kv {",
        why: "`kv` is already a slice; `<[T]>::as_slice` is unstable",
    },
    Fix {
        file: "protocol.rs",
        from: "None => crate::json::to_string(val).map_err(|e| e.to_string())?,",
        to: "None => match val {\n                            crate::json::Value::Num(raw) => raw.clone(),\n                            other => return Err(format!(\"span field value {other:?} is neither a string nor a number\")),\n                        },",
        why: "json::Value does not implement Serialize; a number keeps its wire text",
    },
];

fn copy_tree(from: &Path, to: &Path) -> io::Result<()> {
    fs::create_dir_all(to)?;
    for entry in fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_tree(&entry.path(), &target)?;
        } else {
            fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}

fn main() -> io::Result<()> {
    let manifest = PathBuf::from(env::var("CARGO_MANIFEST_DIR").expect("set by cargo"));
    let source = manifest.join("../../crates/hin-service/src");
    let copy = PathBuf::from(env::var("OUT_DIR").expect("set by cargo")).join("hin-service-src");
    println!("cargo:rerun-if-changed={}", source.display());
    println!("cargo:rerun-if-changed=build.rs");

    if copy.exists() {
        fs::remove_dir_all(&copy)?;
    }
    copy_tree(&source, &copy)?;

    let mut applied = Vec::new();
    for fix in FIXES {
        let path = copy.join(fix.file);
        let text = fs::read_to_string(&path)?;
        if text.contains(fix.from) {
            fs::write(&path, text.replace(fix.from, fix.to))?;
            println!("cargo:warning=hin-service/src/{}: {}", fix.file, fix.why);
            applied.push(format!("{}: {}", fix.file, fix.why));
        }
    }
    // Every result file says which source its served workloads measured.
    let applied = if applied.is_empty() {
        "as committed".to_string()
    } else {
        format!(
            "as committed but for {} build fixes ({})",
            applied.len(),
            applied.join("; ")
        )
    };
    println!("cargo:rustc-env=HIN_SERVICE_SOURCE={applied}");

    // `include!` pastes lib.rs in item position, where inner attributes and
    // inner doc comments are not allowed; both only carry docs and lints.
    let lib = copy.join("lib.rs");
    let body: String = fs::read_to_string(&lib)?
        .lines()
        .filter(|l| !l.starts_with("//!") && !l.starts_with("#!["))
        .map(|l| format!("{l}\n"))
        .collect();
    fs::write(&lib, body)
}
