#![warn(missing_docs)]
// Diagnosis must degrade gracefully, never panic: unwrap/expect are banned in
// library code (tests may use them freely). See sherlock-lint's panic-path rule.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

//! Density-based clustering primitives for DBSherlock.
//!
//! The paper's automatic anomaly detection (§7) is built on DBSCAN
//! (Ester et al., KDD 1996) with `minPts = 3` and `ε = max(L_k)/4` derived
//! from the k-dist list. This crate provides exactly those pieces, plus the
//! point/distance plumbing, as an independent, reusable library.
//!
//! # Example
//!
//! ```
//! use dbsherlock_cluster::{dbscan, epsilon_from_kdist};
//!
//! // A large group near 0 and a small (3-point) group near 10.
//! let mut points: Vec<Vec<f64>> = (0..6).map(|i| vec![i as f64 * 0.1]).collect();
//! points.extend((0..3).map(|i| vec![10.0 + i as f64 * 0.1]));
//! // The small group's 3rd-nearest neighbour lies across the gap, so
//! // max(L_3) ≈ the gap and eps = gap / 4 separates the groups.
//! let eps = epsilon_from_kdist(&points, 3).unwrap();
//! let clustering = dbscan(&points, eps, 3);
//! assert_eq!(clustering.n_clusters, 2);
//! ```
//!
//! DBSCAN has one implementation, [`dbscan_by`], which takes each point's
//! `ε`-neighbourhood as a predicate `within(i, j)`. [`dbscan`] feeds it
//! Euclidean distances over the points. A caller that already holds the
//! pairwise distances — DBSherlock's detector keeps an `n × n` matrix for
//! its k-dist list — passes a lookup instead and gets the same labels:
//!
//! ```
//! use dbsherlock_cluster::{dbscan, dbscan_by, euclidean};
//!
//! let points: Vec<Vec<f64>> = vec![vec![0.0], vec![0.1], vec![0.2], vec![5.0]];
//! let n = points.len();
//! let matrix: Vec<f64> =
//!     points.iter().flat_map(|a| points.iter().map(move |b| euclidean(a, b))).collect();
//! let from_matrix = dbscan_by(n, 3, |i, j| matrix[i * n + j] <= 0.15);
//! assert_eq!(from_matrix.labels, dbscan(&points, 0.15, 3).labels);
//! assert_eq!(from_matrix.n_clusters, 1);
//! ```

pub mod dbscan;
pub mod distance;
pub mod kdist;

pub use dbscan::{dbscan, dbscan_by, Clustering, Label};
pub use distance::{euclidean, rows_from_columns, Point};
pub use kdist::{epsilon_from_kdist, kdist_list, kdist_of};
