"""Legacy setup shim: lets `pip install -e . --no-use-pep517` work on
environments whose setuptools lacks the wheel/bdist_wheel machinery."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.11",
    install_requires=["numpy>=1.24"],
    extras_require={
        "test": [
            "pytest", "pytest-benchmark", "pytest-timeout", "hypothesis",
            "scipy>=1.10", "mpmath",
        ],
    },
)
