//! DBSCAN density-based clustering (Ester, Kriegel, Sander, Xu — KDD 1996).
//!
//! DBSherlock's automatic anomaly detector (paper §7) clusters normalized
//! telemetry points with DBSCAN (`minPts = 3`, `ε = max(L_k) / 4` from the
//! k-dist list) and flags small clusters as candidate anomalies. This is a
//! faithful, quadratic-time implementation — the detector runs on a few
//! hundred one-second samples, where O(n²) neighbour queries are cheap and
//! an index would be noise.
//!
//! There is one implementation, [`dbscan_by`], driven by a neighbourhood
//! predicate. [`dbscan`] feeds it Euclidean distances over points; the
//! detector feeds it the distance matrix it already built for the k-dist
//! list, so DBSCAN computes no distance of its own there.

use crate::distance::{euclidean, Point};

/// Cluster assignment for one input point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Label {
    /// Not density-reachable from any core point.
    Noise,
    /// Member of the cluster with the given id (0-based, dense).
    Cluster(usize),
}

impl Label {
    /// The cluster id, if this point belongs to a cluster.
    pub fn cluster(self) -> Option<usize> {
        match self {
            Label::Noise => None,
            Label::Cluster(id) => Some(id),
        }
    }
}

/// Result of a DBSCAN run.
#[derive(Debug, Clone)]
pub struct Clustering {
    /// Per-point labels, parallel to the input.
    pub labels: Vec<Label>,
    /// Number of clusters found.
    pub n_clusters: usize,
}

impl Clustering {
    /// Indices of the points in cluster `id`.
    pub fn members(&self, id: usize) -> Vec<usize> {
        self.labels
            .iter()
            .enumerate()
            .filter(|(_, l)| l.cluster() == Some(id))
            .map(|(i, _)| i)
            .collect()
    }

    /// Cluster sizes indexed by cluster id.
    pub fn sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.n_clusters];
        for id in self.labels.iter().filter_map(|label| label.cluster()) {
            if let Some(size) = sizes.get_mut(id) {
                *size += 1;
            }
        }
        sizes
    }
}

/// Run DBSCAN over `points` with radius `eps` and density threshold
/// `min_pts` (a point is *core* when at least `min_pts` points — including
/// itself — lie within `eps`).
pub fn dbscan(points: &[Point], eps: f64, min_pts: usize) -> Clustering {
    dbscan_by(points.len(), min_pts, |i, j| {
        points.get(i).zip(points.get(j)).is_some_and(|(a, b)| euclidean(a, b) <= eps)
    })
}

/// DBSCAN over `n` points whose `eps`-neighbourhoods are given by the
/// predicate `within(i, j)`: "point `j` lies within `eps` of point `i`".
/// [`dbscan`] supplies it from Euclidean distances; a caller that already
/// holds the pairwise distances (the §7 detector keeps an `n × n` matrix
/// for the k-dist list) reads them instead of computing each twice. Labels
/// depend only on the predicate's answers, so two predicates that agree on
/// every pair give the same clustering.
pub fn dbscan_by(n: usize, min_pts: usize, within: impl Fn(usize, usize) -> bool) -> Clustering {
    const UNVISITED: usize = usize::MAX;
    const NOISE: usize = usize::MAX - 1;
    let mut assignment = vec![UNVISITED; n];
    let mut n_clusters = 0usize;

    let neighbours = |i: usize| -> Vec<usize> { (0..n).filter(|&j| within(i, j)).collect() };

    for i in 0..n {
        if assignment.get(i) != Some(&UNVISITED) {
            continue;
        }
        let seeds = neighbours(i);
        let core = seeds.len() >= min_pts;
        let cluster = n_clusters;
        if let Some(slot) = assignment.get_mut(i) {
            *slot = if core { cluster } else { NOISE };
        }
        if !core {
            continue;
        }
        n_clusters += 1;
        let mut queue: Vec<usize> = seeds;
        let mut cursor = 0;
        while let Some(&j) = queue.get(cursor) {
            cursor += 1;
            let Some(slot) = assignment.get_mut(j) else { continue };
            if *slot == NOISE {
                // Border point: density-reachable, joins the cluster.
                *slot = cluster;
            }
            if *slot != UNVISITED {
                continue;
            }
            *slot = cluster;
            let j_neighbours = neighbours(j);
            if j_neighbours.len() >= min_pts {
                queue.extend(j_neighbours);
            }
        }
    }

    let labels = assignment
        .into_iter()
        .map(|a| if a == NOISE || a == UNVISITED { Label::Noise } else { Label::Cluster(a) })
        .collect();
    Clustering { labels, n_clusters }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blob(center: (f64, f64), n: usize, spread: f64) -> Vec<Point> {
        // Deterministic ring of points around the center.
        (0..n)
            .map(|i| {
                let angle = i as f64 / n as f64 * std::f64::consts::TAU;
                vec![center.0 + spread * angle.cos(), center.1 + spread * angle.sin()]
            })
            .collect()
    }

    #[test]
    fn two_blobs_two_clusters() {
        let mut points = blob((0.0, 0.0), 10, 0.05);
        points.extend(blob((1.0, 1.0), 10, 0.05));
        let c = dbscan(&points, 0.2, 3);
        assert_eq!(c.n_clusters, 2);
        let first = c.labels[0].cluster().unwrap();
        assert!(c.labels[..10].iter().all(|l| l.cluster() == Some(first)));
        let second = c.labels[10].cluster().unwrap();
        assert_ne!(first, second);
        assert!(c.labels[10..].iter().all(|l| l.cluster() == Some(second)));
        assert_eq!(c.sizes(), vec![10, 10]);
    }

    #[test]
    fn isolated_point_is_noise() {
        let mut points = blob((0.0, 0.0), 8, 0.05);
        points.push(vec![5.0, 5.0]);
        let c = dbscan(&points, 0.2, 3);
        assert_eq!(c.labels[8], Label::Noise);
        assert_eq!(c.n_clusters, 1);
        assert_eq!(c.members(0).len(), 8);
    }

    #[test]
    fn min_pts_larger_than_any_neighbourhood_yields_all_noise() {
        let points = blob((0.0, 0.0), 5, 1.0);
        let c = dbscan(&points, 0.01, 3);
        assert_eq!(c.n_clusters, 0);
        assert!(c.labels.iter().all(|&l| l == Label::Noise));
    }

    #[test]
    fn border_point_between_density_centers_joins_a_cluster() {
        // A chain: dense left group, one bridge point within eps of the
        // left core but itself not core.
        let mut points = vec![
            vec![0.0],
            vec![0.05],
            vec![0.1],  // dense core region
            vec![0.28], // border: within 0.2 of 0.1 only
        ];
        points.push(vec![0.07]);
        let c = dbscan(&points, 0.2, 4);
        assert_eq!(c.n_clusters, 1);
        assert_eq!(c.labels[3].cluster(), Some(0));
    }

    #[test]
    fn empty_input() {
        let c = dbscan(&[], 1.0, 3);
        assert_eq!(c.n_clusters, 0);
        assert!(c.labels.is_empty());
    }

    #[test]
    fn every_point_labeled_exactly_once() {
        let mut points = blob((0.0, 0.0), 12, 0.1);
        points.extend(blob((0.5, 0.5), 4, 0.02));
        let c = dbscan(&points, 0.15, 3);
        assert_eq!(c.labels.len(), points.len());
        let clustered: usize = c.sizes().iter().sum();
        let noise = c.labels.iter().filter(|&&l| l == Label::Noise).count();
        assert_eq!(clustered + noise, points.len());
    }
}
