//! Partition filtering (paper §4.3, Figure 5).
//!
//! A non-Empty partition whose label disagrees with either of its two
//! closest non-Empty neighbours is demoted to `Empty`. All demotions are
//! applied *simultaneously* — incremental filtering would let partitions
//! cascade each other away (the paper notes the two partitions at each end
//! of the space would be lost in Fig. 5's scenarios 2 and 3).
//!
//! Consequences of the simultaneous rule as the paper states it:
//! * a partition with only one non-Empty neighbour (the outermost
//!   non-Empty partitions) is never filtered;
//! * a lone Normal/Abnormal partition is "deemed significant" and kept.

use crate::partition::PartitionLabel;

/// Apply one simultaneous filtering pass, returning the filtered labels.
pub fn filter_partitions(labels: &[PartitionLabel]) -> Vec<PartitionLabel> {
    let non_empty: Vec<usize> = labels
        .iter()
        .enumerate()
        .filter(|(_, &l)| l != PartitionLabel::Empty)
        .map(|(i, _)| i)
        .collect();
    let mut out = labels.to_vec();
    // Only interior non-Empty partitions (those with a non-Empty neighbour
    // on both sides) can be filtered.
    for w in non_empty.windows(3) {
        let (left, mid, right) = (w[0], w[1], w[2]);
        if labels[mid] != labels[left] || labels[mid] != labels[right] {
            out[mid] = PartitionLabel::Empty;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::PartitionLabel::{Abnormal as A, Empty as E, Normal as N};

    #[test]
    fn scenario_1_agreeing_neighbours_survive() {
        // Fig. 5 scenario 1: N ... N ... N — the middle stays.
        let labels = vec![N, E, N, E, N];
        assert_eq!(filter_partitions(&labels), labels);
    }

    #[test]
    fn scenario_2_lone_dissenter_between_same_labels() {
        // A ... N ... A — the N is filtered, the ends survive.
        let labels = vec![A, E, N, E, A];
        assert_eq!(filter_partitions(&labels), vec![A, E, E, E, A]);
    }

    #[test]
    fn scenario_3_dissenter_adjacent() {
        let labels = vec![A, N, A];
        assert_eq!(filter_partitions(&labels), vec![A, E, A]);
    }

    #[test]
    fn scenario_4_boundary_between_blocks() {
        // N N A A: the inner N (left of A) disagrees with its right
        // neighbour; the inner A disagrees with its left neighbour — both
        // are interior, so both are filtered simultaneously.
        let labels = vec![N, N, A, A];
        assert_eq!(filter_partitions(&labels), vec![N, E, E, A]);
    }

    #[test]
    fn simultaneity_prevents_cascade() {
        // Alternating interior labels all disagree at once; ends survive
        // because they have only one non-Empty neighbour.
        let labels = vec![N, A, N, A, N];
        assert_eq!(filter_partitions(&labels), vec![N, E, E, E, N]);
    }

    #[test]
    fn single_partition_is_kept() {
        let labels = vec![E, A, E];
        assert_eq!(filter_partitions(&labels), labels);
        let labels = vec![N];
        assert_eq!(filter_partitions(&labels), labels);
    }

    #[test]
    fn two_partitions_are_kept() {
        // With only two non-Empty partitions neither has two neighbours.
        let labels = vec![A, E, N];
        assert_eq!(filter_partitions(&labels), labels);
    }

    #[test]
    fn all_empty_is_noop() {
        let labels = vec![E, E, E];
        assert_eq!(filter_partitions(&labels), labels);
    }

    #[test]
    fn noisy_input_erodes_to_pure_anchors() {
        // Noise: a stray A in the normal cluster and a stray N in the
        // abnormal cluster (Fig. 4's illustration). The literal §4.3 rule
        // — keep an interior partition only when BOTH non-Empty neighbours
        // share its label — erodes every partition adjacent to dissent;
        // the subsequent gap-filling step re-labels the emptied span with
        // the δ-weighted nearest anchor, which is how δ tunes the final
        // predicate boundary.
        let labels = vec![N, N, A, N, N, E, E, A, N, A, A];
        let filtered = filter_partitions(&labels);
        assert_eq!(filtered, vec![N, E, E, E, E, E, E, E, E, E, A]);
    }

    #[test]
    fn clean_blocks_keep_their_interiors() {
        // Without strays, only the two partitions at the block boundary
        // erode; block interiors survive.
        let labels = vec![N, N, N, A, A, A];
        let filtered = filter_partitions(&labels);
        assert_eq!(filtered, vec![N, N, E, E, A, A]);
    }
}
