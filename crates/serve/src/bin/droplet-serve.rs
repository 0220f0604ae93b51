//! `droplet-serve` — the experiment service daemon.
//!
//! ```text
//! droplet-serve [--addr 127.0.0.1:8642] [--store-dir droplet-store]
//!               [--scale <tiny|small|sim>] [--threads <n>]
//! ```
//!
//! Runs until killed. `--scale` sets the default for specs that omit one;
//! `--threads` sets the worker-pool width, which also bounds simultaneous
//! engine jobs.

use droplet::specparse;
use droplet_serve::{spawn, ServerOptions};
use std::path::PathBuf;

fn usage() -> ! {
    eprintln!(
        "usage: droplet-serve [--addr <host:port>] [--store-dir <dir>|--no-store]\n\
         \x20                    [--scale <tiny|small|sim>] [--threads <n>]"
    );
    std::process::exit(2);
}

fn flag_value<T>(parsed: Result<T, droplet::SpecError>) -> T {
    parsed.unwrap_or_else(|e| {
        eprintln!("error: --{e}");
        usage()
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let mut options = ServerOptions {
        addr: "127.0.0.1:8642".to_string(),
        store_dir: Some(PathBuf::from("droplet-store")),
        ..ServerOptions::default()
    };
    let mut it = argv[1..].iter();
    while let Some(flag) = it.next() {
        if flag == "--no-store" {
            options.store_dir = None;
            continue;
        }
        let Some(value) = it.next() else {
            eprintln!("error: {flag}: missing value");
            usage()
        };
        match flag.as_str() {
            "--addr" => options.addr = value.clone(),
            "--store-dir" => options.store_dir = Some(PathBuf::from(value)),
            "--scale" => options.default_scale = flag_value(specparse::parse_scale("scale", value)),
            "--threads" => {
                options.threads = Some(flag_value(specparse::parse_positive_usize(
                    "threads", value,
                )))
            }
            _ => {
                eprintln!("error: {flag}: unknown flag");
                usage()
            }
        }
    }
    let store_desc = options
        .store_dir
        .as_ref()
        .map(|d| d.display().to_string())
        .unwrap_or_else(|| "(disabled)".to_string());
    let handle = match spawn(options) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("droplet-serve: cannot bind: {e}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "droplet-serve: listening on {} (store {store_desc}, {} workers)",
        handle.addr,
        handle.state().pool.threads()
    );
    // Serve until killed: the accept loop runs on its own thread, so park
    // this one forever.
    loop {
        std::thread::park();
    }
}
