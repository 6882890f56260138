//! Property-based tests for the clustering substrate: DBSCAN results must
//! always be *valid clusterings* in the Ester et al. sense.

use dbsherlock_cluster::{dbscan, dbscan_by, euclidean, kdist_list, Label, Point};
use proptest::prelude::*;

fn points_strategy() -> impl Strategy<Value = Vec<Point>> {
    proptest::collection::vec(proptest::collection::vec(-10.0_f64..10.0, 2), 0..60)
}

proptest! {
    /// Every point is labeled, cluster ids are dense, and every cluster
    /// contains at least one core point.
    #[test]
    fn dbscan_output_is_well_formed(
        points in points_strategy(),
        eps in 0.1_f64..5.0,
        min_pts in 2usize..6,
    ) {
        let clustering = dbscan(&points, eps, min_pts);
        prop_assert_eq!(clustering.labels.len(), points.len());
        let sizes = clustering.sizes();
        prop_assert_eq!(sizes.len(), clustering.n_clusters);
        for (id, &size) in sizes.iter().enumerate() {
            prop_assert!(size > 0, "cluster {id} is empty");
            // At least one member must be a core point.
            let members = clustering.members(id);
            let has_core = members.iter().any(|&i| {
                points.iter().filter(|p| euclidean(&points[i], p) <= eps).count() >= min_pts
            });
            prop_assert!(has_core, "cluster {id} has no core point");
        }
    }

    /// Core points are never noise.
    #[test]
    fn core_points_are_clustered(
        points in points_strategy(),
        eps in 0.1_f64..5.0,
        min_pts in 2usize..6,
    ) {
        let clustering = dbscan(&points, eps, min_pts);
        for (i, label) in clustering.labels.iter().enumerate() {
            let neighbours =
                points.iter().filter(|p| euclidean(&points[i], p) <= eps).count();
            if neighbours >= min_pts {
                prop_assert!(*label != Label::Noise, "core point {i} marked noise");
            }
        }
    }

    /// Two core points within eps of each other share a cluster.
    #[test]
    fn mutually_close_core_points_share_cluster(
        points in points_strategy(),
        eps in 0.5_f64..5.0,
        min_pts in 2usize..5,
    ) {
        let clustering = dbscan(&points, eps, min_pts);
        let is_core = |i: usize| {
            points.iter().filter(|p| euclidean(&points[i], p) <= eps).count() >= min_pts
        };
        for i in 0..points.len() {
            for j in (i + 1)..points.len() {
                if is_core(i) && is_core(j) && euclidean(&points[i], &points[j]) <= eps {
                    prop_assert_eq!(
                        clustering.labels[i].cluster(),
                        clustering.labels[j].cluster(),
                        "directly-connected core points {} and {} split",
                        i, j
                    );
                }
            }
        }
    }

    /// k-dist values are non-negative, and monotone in k.
    #[test]
    fn kdist_monotone_in_k(points in points_strategy()) {
        prop_assume!(points.len() >= 4);
        let l1 = kdist_list(&points, 1);
        let l3 = kdist_list(&points, 3);
        for (a, b) in l1.iter().zip(&l3) {
            prop_assert!(*a >= 0.0);
            prop_assert!(b >= a, "k-dist must grow with k");
        }
    }

    /// DBSCAN driven by a precomputed `n × n` distance matrix (the §7
    /// detector's path) labels every point exactly as `dbscan` over the
    /// points does, duplicates and all.
    #[test]
    fn matrix_driven_dbscan_matches_point_dbscan(
        points in points_strategy(),
        duplicates in proptest::collection::vec(0usize..60, 0..8),
        eps in 0.0_f64..5.0,
        min_pts in 1usize..6,
    ) {
        let mut points = points;
        for &k in &duplicates {
            if let Some(p) = points.get(k % points.len().max(1)).cloned() {
                points.push(p);
            }
        }
        let n = points.len();
        let matrix: Vec<f64> =
            points.iter().flat_map(|a| points.iter().map(move |b| euclidean(a, b))).collect();
        let from_matrix = dbscan_by(n, min_pts, |i, j| matrix[i * n + j] <= eps);
        let from_points = dbscan(&points, eps, min_pts);
        prop_assert_eq!(from_matrix.labels, from_points.labels);
        prop_assert_eq!(from_matrix.n_clusters, from_points.n_clusters);
    }
}
