from .loops import LoopSolution, decode_loop
from .roadrunner import (
    RoadrunnerInstance,
    RoadrunnerSolution,
    build_roadrunner,
    decode_roadrunner,
    parse_roadrunner,
    verify_roadrunner,
)
from .masyu import MasyuInstance, build_masyu, parse_masyu, verify_masyu
from .shingoki import ShingokiInstance, build_shingoki, parse_shingoki, verify_shingoki
from .tapa import (
    ColoringSolution,
    TapaInstance,
    build_tapa,
    decode_coloring,
    findall_layouts,
    neighbor_ring,
    parse_tapa,
    verify_tapa,
)

__all__ = [
    "LoopSolution",
    "decode_loop",
    "RoadrunnerInstance",
    "RoadrunnerSolution",
    "build_roadrunner",
    "decode_roadrunner",
    "parse_roadrunner",
    "verify_roadrunner",
    "MasyuInstance",
    "build_masyu",
    "parse_masyu",
    "verify_masyu",
    "ShingokiInstance",
    "build_shingoki",
    "parse_shingoki",
    "verify_shingoki",
    "ColoringSolution",
    "TapaInstance",
    "build_tapa",
    "decode_coloring",
    "findall_layouts",
    "neighbor_ring",
    "parse_tapa",
    "verify_tapa",
]
