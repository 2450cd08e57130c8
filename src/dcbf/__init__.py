"""Discrete-time baseband simulator for distributed coherent beamforming meshes."""

from .core import ComplexSignal, ConfigError, FrameLayout, MeshConfig, NodeState, Segment, substream, validate_config
from .impairments import ChannelModel, NoiseSpec, add_noise, advance_clock, apply_channel, apply_node_imperfections

__version__ = "0.1.0"

__all__ = [
    "ComplexSignal",
    "ConfigError",
    "FrameLayout",
    "MeshConfig",
    "NodeState",
    "Segment",
    "substream",
    "validate_config",
    "ChannelModel",
    "NoiseSpec",
    "add_noise",
    "advance_clock",
    "apply_channel",
    "apply_node_imperfections",
    "__version__",
]
