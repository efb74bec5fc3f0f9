"""Community search over the k_max-truss (the paper's §I application)
and its export formats."""

from .community import CommunityResult, truss_community, max_truss_communities
from .export import to_dot, community_to_json, hierarchy_to_json, load_community_json

__all__ = [
    "CommunityResult",
    "truss_community",
    "max_truss_communities",
    "to_dot",
    "community_to_json",
    "hierarchy_to_json",
    "load_community_json",
]
