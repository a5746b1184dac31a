from .tensor import (
    Tensor, as_tensor, no_grad,
    add, sub, mul, div, neg, power, matmul,
    tsum, tmean, reshape, transpose, getitem, concat,
    exp, log, tanh, sigmoid, softplus, gelu,
    tabs, maximum, arccos, tan, softmax,
)
from .nn import (
    Role, TokenSet, MlpParams, MhaParams,
    mlp, mha, l2_normalize, rms_norm, require_role,
)
from .optim import AdamW, AdamWState, adamw_step, global_grad_norm
from .gradcheck import grad_check
from . import vlt
