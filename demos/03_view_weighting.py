"""Watch the view weights adapt when one view is pure noise.

Two views of the same node set: view 0 carries the full planted structure,
view 1 is structureless noise. The auto-weighting assigns view 0 a larger
weight; pinning the weights instead (the non-adaptive variant) degrades the
clustering.
"""


import mvgehd as mv

spec = mv.PlantedSpec(n=80, clusters=3, hubs=3, views=2, seed=5,
                      view_quality=(1.0, 0.0))
graph, truth = mv.generate_multiview(spec)

# ---------------------------------------------------------------------------
# Auto-weighted run: weights are recomputed from the fit each iteration.
# ---------------------------------------------------------------------------
embedding, weights, trace = mv.solve(graph, mv.EmbedConfig(k=2))
print("auto mode weight history (structured vs noise):")
for t in range(0, len(trace.alpha_history), max(1, len(trace.alpha_history) // 6)):
    a = trace.alpha_history[t]
    print(f"  iter {t:3d}: alpha = ({a[0]:.3f}, {a[1]:.3f})")
print(f"final: structured={weights[0]:.3f} > noise={weights[1]:.3f} "
      f"-> {weights[0] > weights[1]}")
labels = mv.node_clusters(embedding, spec.clusters, mv.KMeansConfig(seed=0))
print(f"auto-weighted clustering NMI: {mv.nmi(labels, truth.labels):.3f}")

# ---------------------------------------------------------------------------
# Fixed equal weights: the noise view keeps polluting the operator.
# ---------------------------------------------------------------------------
embedding_eq, _, _ = mv.solve(graph, mv.EmbedConfig(k=2, weights=(0.5, 0.5)))
labels_eq = mv.node_clusters(embedding_eq, spec.clusters, mv.KMeansConfig(seed=0))
print(f"fixed equal-weight clustering NMI: {mv.nmi(labels_eq, truth.labels):.3f}")

# ---------------------------------------------------------------------------
# Structured view alone (a one-view graph) as the reference point.
# ---------------------------------------------------------------------------
embedding_sv, _, _ = mv.solve(mv.MultiViewGraph(views=(graph.views[0],)),
                              mv.EmbedConfig(k=2))
labels_sv = mv.node_clusters(embedding_sv, spec.clusters, mv.KMeansConfig(seed=0))
print(f"structured view alone NMI: {mv.nmi(labels_sv, truth.labels):.3f}")
