"""Reference implementations the tests compare production paths against."""
