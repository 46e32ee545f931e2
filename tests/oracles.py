"""Independent, intentionally naive reference implementations for tests."""

from linklab.corpus import InstanceID


def naive_b3(truth_clusters, predicted_clusters):
    """Per-instance double-loop B-cubed over the truth universe.

    truth_clusters / predicted_clusters: mapping cluster_id -> set of
    instances. Every truth instance must appear in predicted; predicted
    clusters are restricted to the truth universe.
    """
    universe = set()
    for members in truth_clusters.values():
        universe |= members

    def cluster_of(clusters, instance):
        for members in clusters.values():
            if instance in members:
                return members
        raise KeyError(instance)

    recall_sum = 0.0
    precision_sum = 0.0
    for t in sorted(universe):
        truth_members = cluster_of(truth_clusters, t)
        predicted_members = cluster_of(predicted_clusters, t) & universe
        shared = len(truth_members & predicted_members)
        recall_sum += shared / len(truth_members)
        precision_sum += shared / len(predicted_members)
    n = len(universe)
    recall = recall_sum / n
    precision = precision_sum / n
    f1 = 0.0 if recall + precision == 0 else 2 * recall * precision / (recall + precision)
    return recall, precision, f1


def random_partition(rng, instances, max_clusters=None):
    """Random partition as a cluster_id -> set mapping; may be skewed."""
    instances = list(instances)
    k = rng.randint(1, max_clusters or len(instances))
    clusters = {}
    for instance in instances:
        clusters.setdefault(f"c{rng.randint(1, k)}", set()).add(instance)
    return clusters


def make_instances(n):
    return [InstanceID(i, 1) for i in range(1, n + 1)]
