"""Numpy GNN substrate: autograd, GraphSAGE layers, Adam, the loss."""

from repro.nn.autograd import Tensor
from repro.nn.module import Module, Parameter
from repro.nn import functional
from repro.nn.functional import cross_entropy
from repro.nn.layers import Linear, SAGEConv
from repro.nn.models import GraphSAGE, MLP
from repro.nn.optim import Adam

__all__ = [
    "Tensor",
    "Module",
    "Parameter",
    "functional",
    "cross_entropy",
    "Linear",
    "SAGEConv",
    "GraphSAGE",
    "MLP",
    "Adam",
]
