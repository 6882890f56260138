#![warn(missing_docs)]
// Ingestion must degrade gracefully, never panic: unwrap/expect are banned in
// library code (tests may use them freely).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

//! Telemetry data model and preprocessing substrate for DBSherlock.
//!
//! This crate plays the role DBSeer's collection and preprocessing pipeline
//! plays in the paper (Fig. 2, steps 1–2): it defines typed attributes,
//! aligned per-second tuples, abnormal/normal regions, a dbseer-style CSV
//! format, raw-log alignment, and the shared statistics toolkit.
//!
//! # Example
//!
//! ```
//! use dbsherlock_telemetry::{AttributeMeta, Dataset, Region, Schema, Value};
//!
//! let schema = Schema::from_attrs([
//!     AttributeMeta::numeric("os_cpu_usage"),
//!     AttributeMeta::categorical("active_job"),
//! ]).unwrap();
//! let mut data = Dataset::new(schema);
//! let idle = data.intern(1, "idle").unwrap();
//! data.push_row(0.0, &[Value::Num(12.0), idle]).unwrap();
//! data.push_row(1.0, &[Value::Num(95.0), idle]).unwrap();
//!
//! let abnormal = Region::from_range(1..2);
//! let normal = abnormal.complement(data.n_rows());
//! assert_eq!(normal.indices(), &[0]);
//! ```

pub mod align;
pub mod attribute;
pub mod csv;
pub mod dataset;
pub mod error;
pub mod faults;
pub mod plot;
pub mod region;
pub mod stats;
pub mod value;
pub mod view;

pub use align::{
    align, repair_alignment, Aggregation, AlignOptions, CategoricalStream, NumericStream,
    RepairOptions,
};
pub use attribute::{AttributeKind, AttributeMeta, Schema};
pub use csv::{
    from_csv, from_csv_lossy, parse_header_lossy, parse_line_lossy, push_raw_row, split_line,
    to_csv, RawCell,
};
pub use dataset::{Column, Dataset};
pub use error::{IngestWarning, Result, TelemetryError};
pub use faults::{CorruptionEvent, CorruptionReport, FaultKind, FaultPlan, FaultSpec};
pub use plot::{render as render_plot, PlotOptions};
pub use region::Region;
pub use value::{Dictionary, Value};
pub use view::{CategoricalView, ColumnView, ColumnarSnapshot, NumericView};
