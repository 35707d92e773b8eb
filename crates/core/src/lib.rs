//! # wla-core — public API of the reproduction
//!
//! One façade over the whole system: configure a [`Study`] (scale + seed),
//! run the paper's three measurement campaigns, and materialize every
//! table and figure of the evaluation with paper-vs-measured comparisons.
//!
//! ```
//! use wla_core::Study;
//!
//! // A tiny-scale study (1:2000 ⇒ ~73 apps) for doc-test speed.
//! let study = Study::new(2_000, 42);
//! let static_run = study.run_static();
//! let t7 = wla_core::experiments::table7(&study, &static_run);
//! assert!(t7.comparison.match_fraction() > 0.0);
//! println!("{}", t7.table.render());
//! ```
//!
//! Crate map (bottom-up): [`wla_apk`] (SDEX/SAPK formats) → [`wla_manifest`]
//! → [`wla_sdk_index`] → [`wla_corpus`] (calibrated generator) →
//! [`wla_decompile`] + [`wla_callgraph`] → [`wla_static`] (§3.1 pipeline);
//! [`wla_net`] (loopback HTTP) → [`wla_web`] (DOM + interception) →
//! [`wla_device`] (simulated Android) → [`wla_crawler`] → [`wla_dynamic`]
//! (§3.2 pipeline); [`wla_report`] renders. See DESIGN.md for the full
//! inventory and EXPERIMENTS.md for results.

pub mod experiments;
pub mod paper;
pub mod service;
pub mod stats;
pub mod study;

pub use service::{analysis_routes, service_router};
pub use study::{CrawlRun, DynamicRun, FunnelRun, StaticRun, Study};

// Re-export the sub-crates so downstream users need only one dependency.
pub use wla_apk;
pub use wla_callgraph;
pub use wla_corpus;
pub use wla_crawler;
pub use wla_decompile;
pub use wla_device;
pub use wla_dynamic;
pub use wla_intern;
pub use wla_manifest;
pub use wla_net;
pub use wla_report;
pub use wla_sdk_index;
pub use wla_static;
pub use wla_web;
