"""Network topologies: graph type, standard builders, paper gadgets."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "graphs": "Graph label_sort_key",
    "standard": "clique line ring star grid torus balanced_tree barbell "
                "star_of_cliques random_connected random_geometric",
    "gadgets": "GadgetSpec NetworkA NetworkB KDNetwork Figure1Report gadget "
               "network_a network_b kd_network check_covering "
               "verify_figure1 figure1_parameters",
})
