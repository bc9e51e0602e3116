"""Property tests of the checkpoint and train-config round trips.

save_checkpoint followed by load_checkpoint must give back every parameter
array bit for bit and an equal TrainConfig, whatever the config, the number
of feature and propagation paths, and the layer widths.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oodhg import (
    EncoderParams,
    MetaPath,
    TrainConfig,
    load_checkpoint,
    save_checkpoint,
)

property_settings = settings(max_examples=40, deadline=None)

configs = st.builds(
    TrainConfig,
    learning_rate=st.floats(1e-8, 10.0),
    epochs=st.integers(1, 10_000),
    alpha=st.floats(0.0, 1.0),
    m_in=st.floats(-1e6, 1e6),
    gamma=st.floats(0.0, 1.0, exclude_min=True),
    steps=st.integers(0, 16),
    seed=st.integers(0, 2**63 - 1),
    d_hidden=st.integers(1, 6),
)
paths = st.lists(st.sampled_from(["t", "a", "b"]), min_size=2, max_size=4)


def _array(rng, shape):
    """Normal draws spread over many binary exponents, with signed zeros."""
    out = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
    out[rng.random(shape) < 0.1] = -0.0
    return out


@property_settings
@given(config=configs,
       feature_paths=st.lists(paths, min_size=1, max_size=3),
       prop_paths=st.lists(paths, min_size=0, max_size=3),
       in_dims=st.lists(st.integers(1, 5), min_size=3, max_size=3),
       n_classes=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1))
def test_checkpoint_roundtrip_is_bitwise(tmp_path_factory, config, feature_paths,
                                         prop_paths, in_dims, n_classes, seed):
    rng = np.random.default_rng(seed)
    h = config.d_hidden
    n = len(feature_paths)
    id_values = np.sort(rng.choice(50, size=n_classes, replace=False))
    params = EncoderParams(
        tuple(MetaPath(p) for p in feature_paths),
        tuple(MetaPath(p) for p in prop_paths), id_values,
        [_array(rng, (d, h)) for d in in_dims[:n]],
        [_array(rng, (h,)) for _ in range(n)],
        _array(rng, (h * n, h)), _array(rng, (h,)),
        _array(rng, (h, n_classes)), _array(rng, (n_classes,)))
    path = tmp_path_factory.mktemp("ckpt") / "checkpoint.json"
    save_checkpoint(path, params, config, 50)

    ckpt = load_checkpoint(path)
    assert ckpt.config == config
    assert ckpt.params.paths == tuple(MetaPath(p) for p in feature_paths)
    assert ckpt.params.prop_paths == tuple(MetaPath(p) for p in prop_paths)
    assert ckpt.params.classes.dtype == np.int64
    assert ckpt.params.classes.tolist() == id_values.tolist()
    assert ckpt.ood_class == 50
    got, want = ckpt.params.param_list(), params.param_list()
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def test_loaded_feature_paths_keep_their_order(tmp_path):
    feature_paths = (MetaPath(("t", "b", "t")), MetaPath(("t", "a")),
                     MetaPath(("t", "a", "b", "t")))
    h, rng = 2, np.random.default_rng(0)
    params = EncoderParams(
        feature_paths, (MetaPath(("t", "b", "t")),), np.array([0, 1]),
        [rng.standard_normal((3, h)) for _ in feature_paths],
        [rng.standard_normal(h) for _ in feature_paths],
        rng.standard_normal((3 * h, h)), rng.standard_normal(h),
        rng.standard_normal((h, 2)), rng.standard_normal(2))
    path = save_checkpoint(tmp_path / "checkpoint.json", params,
                           TrainConfig(d_hidden=h), 2)
    assert load_checkpoint(path).params.paths == feature_paths


@property_settings
@given(config=configs)
def test_train_config_dict_roundtrip(config):
    assert TrainConfig.from_dict(config.to_dict()) == config
