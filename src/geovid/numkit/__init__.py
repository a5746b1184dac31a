from .tensor import (
    Tensor, as_tensor, no_grad, boundary_checks,
    add, sub, mul, div, neg, power, matmul,
    tsum, tmean, broadcast_to, reshape, transpose, getitem, concat, stack,
    exp, log, tanh, sigmoid, softplus, gelu,
    tabs, maximum, arccos, tan, softmax,
)
from .nn import (
    Role, TokenSet, MlpParams, MhaParams, ShapeRng, param,
    mlp, mha, l2_normalize, rms_norm, require_role,
)
from .optim import AdamW
from .gradcheck import grad_check
from . import vlt
