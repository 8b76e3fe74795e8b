"""Compare the embedding's hub signal with the betweenness baseline.

The embedding drives boundary-spanning rows toward zero, so hubs are the
SMALLEST row norms. Shortest-path betweenness ranks hubs HIGHEST. Both are
scored against the planted hub set, and the classic removal step (zeroing
hub rows/columns) is shown at the end.
"""

import numpy as np

import mvgehd as mv

spec = mv.PlantedSpec(n=80, clusters=4, hubs=5, views=2, seed=3)
graph, truth = mv.generate_multiview(spec)
planted = set(truth.hub_set.tolist())
print(f"planted hubs: {sorted(planted)}")


def recall_at(selected, h=len(planted)):
    return len(set(selected) & planted) / h


# ---------------------------------------------------------------------------
# Embedding row norms: small norm = hub.
# ---------------------------------------------------------------------------
embedding, _, _ = mv.solve(graph, mv.EmbedConfig(k=3))
row_report = mv.hub_report(mv.hub_scores(embedding), "row_norm", top=5)
print(f"\nrow-norm hubs:    {row_report.selected.tolist()}  "
      f"recall@5={recall_at(row_report.selected):.2f}")

# ---------------------------------------------------------------------------
# Betweenness centrality per view: large score = hub.
# ---------------------------------------------------------------------------
for v in range(graph.m):
    bc = mv.betweenness(graph.views[v])
    bc_report = mv.hub_report(bc, "betweenness", top=5)
    print(f"betweenness v{v} hubs: {bc_report.selected.tolist()}  "
          f"recall@5={recall_at(bc_report.selected):.2f}")

# ---------------------------------------------------------------------------
# Removing hub edges: the hub rows/columns go quiet in every view.
# ---------------------------------------------------------------------------
stripped = mv.remove_hub_edges(graph, row_report.selected)
before = graph.views[0][truth.hub_set].sum()
after = stripped.views[0][truth.hub_set].sum()
print(f"\nhub-row affinity mass in view 0: {before:.1f} -> {after:.1f}")

# The stripped hubs have zero degree in every view, which solve rejects;
# re-embed the subgraph of the other nodes and check the modules are still
# clean without the hubs.
keep = np.setdiff1d(np.arange(graph.n), row_report.selected)
subgraph = mv.MultiViewGraph(views=tuple(v[np.ix_(keep, keep)] for v in stripped.views))
embedding2, _, _ = mv.solve(subgraph, mv.EmbedConfig(k=3))
labels = mv.node_clusters(embedding2, spec.clusters, mv.KMeansConfig(seed=0))
print(f"module NMI after hub removal (non-hub nodes): "
      f"{mv.nmi(labels, truth.labels[keep]):.3f}")
